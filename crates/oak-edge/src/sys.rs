//! Thin OS readiness layer, dependency-free.
//!
//! Linux gets edge-triggered epoll through four `extern "C"`
//! declarations (no libc crate). A fd is registered once, for
//! readability and writability both, under a `u64` token, and stays so
//! until it is deregistered: the reactor never changes what it listens
//! for. Other targets compile the crate, but [`Poller::new`] fails there
//! and so [`crate::EdgeServer`] refuses to start.

#![allow(unsafe_code)]

/// One readiness notification. `readable` folds in error/hangup states
/// so the read path discovers the close (as EOF or an error) instead of
/// the reactor needing a separate teardown path.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

pub(crate) use imp::Poller;

#[cfg(target_os = "linux")]
mod imp {
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;

    // The kernel reads/writes this layout directly; on x86 it is packed
    // (no padding between `events` and `data`), elsewhere naturally
    // aligned — mirroring the kernel's own definition.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;
    /// Every registration: edge-triggered, both directions, and RDHUP so
    /// a peer half-close surfaces as readability (read returns 0) rather
    /// than silence.
    const MASK: u32 = EPOLLET | EPOLLRDHUP | EPOLLIN | EPOLLOUT;

    /// Edge-triggered epoll instance.
    pub(crate) struct Poller {
        epfd: c_int,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64) -> io::Result<()> {
            // DEL ignores the event, but pre-2.6.9 kernels insist on a
            // non-null one.
            let mut ev = EpollEvent {
                events: MASK,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        pub fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0)
        }

        /// Waits up to `timeout_ms` (-1 blocks) and appends readiness
        /// into `out`. A signal interruption returns empty, not an error.
        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
            out.clear();
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                // Copy fields out of the (possibly packed) struct by value.
                let events = { ev.events };
                let token = { ev.data };
                out.push(Event {
                    token,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::Event;
    use std::io;
    use std::os::raw::c_int;

    /// Stub so the crate compiles off Linux; it cannot be constructed,
    /// so `EdgeServer::start*` fails with `Unsupported`.
    pub(crate) struct Poller(std::convert::Infallible);

    #[allow(dead_code)]
    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "oak-edge reactor requires Linux (epoll)",
            ))
        }

        pub fn register(&mut self, _: c_int, _: u64) -> io::Result<()> {
            match self.0 {}
        }

        pub fn deregister(&mut self, _: c_int) -> io::Result<()> {
            match self.0 {}
        }

        pub fn wait(&mut self, _: i32, _: &mut Vec<Event>) -> io::Result<()> {
            match self.0 {}
        }
    }
}

/// Raises the process soft fd limit to the hard limit (Linux), returning
/// the soft limit now in force. The latency bench opens thousands of
/// simultaneous sockets — client and server ends both count — so default
/// 1024-fd environments (bare CI runners) need the headroom.
#[cfg(target_os = "linux")]
pub fn raise_fd_limit() -> u64 {
    use std::os::raw::c_int;

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }

    const RLIMIT_NOFILE: c_int = 7;

    let mut lim = Rlimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur < lim.max {
        let raised = Rlimit {
            cur: lim.max,
            max: lim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            return lim.max;
        }
    }
    lim.cur
}

/// Non-Linux targets: no-op, returns 0 (callers treat that as unknown).
#[cfg(not(target_os = "linux"))]
pub fn raise_fd_limit() -> u64 {
    0
}
