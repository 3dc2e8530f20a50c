//! FNV-bucketed string interning for domain/host names.
//!
//! Ingest touches the same handful of domain strings millions of times:
//! every violating report names the same CDN hosts, every fold carries
//! the same per-server domain sets, and the rule table indexes the same
//! rule domains. Interning collapses those to shared `Arc<str>` handles —
//! one allocation the first time a (case-folded) name is seen, a hash +
//! refcount bump every time after.
//!
//! Two hostile-input properties are load-bearing:
//!
//! - [`Interner::intern_lower`] hashes and compares *as if lowercased*
//!   without allocating, so the per-report cost for an already-known
//!   domain is zero allocations regardless of the case the client sent.
//! - The table is bounded in names and in bytes: past
//!   [`Interner::CAPACITY`] distinct strings, and for any name longer
//!   than [`Interner::MAX_NAME`], a name is still returned as a fresh
//!   `Arc` but not retained, so the table never holds more than
//!   `CAPACITY × MAX_NAME` bytes of names, whatever clients send. (The
//!   site aggregates, which key their rows by these handles, are bounded
//!   to match: see [`crate::aggregates::SiteAggregates::MAX_ROWS`].)

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A concurrent, capacity-capped intern table keyed by FNV-1a of the
/// lowercased bytes, behind one lock.
#[derive(Default)]
pub struct Interner {
    table: Mutex<Table>,
}

/// What the interner's lock guards.
#[derive(Default)]
struct Table {
    buckets: HashMap<u64, Vec<Arc<str>>>,
    /// Strings retained across all buckets.
    interned: usize,
}

impl Interner {
    /// Most distinct strings retained. A real deployment sees thousands
    /// of domains; 65,536 leaves headroom while bounding hostile growth
    /// (beyond it, interning degrades to plain allocation, never errors).
    pub const CAPACITY: usize = 65_536;

    /// Longest name retained, in bytes: the longest a DNS name can be.
    pub const MAX_NAME: usize = 253;

    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Returns the shared lowercase form of `s`, allocating only the
    /// first time this name (compared ASCII-case-insensitively) is seen —
    /// or every time, for a name over [`Interner::MAX_NAME`] bytes.
    pub fn intern_lower(&self, s: &str) -> Arc<str> {
        let hash = fnv1a_lower(s);
        let mut table = self.table.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(bucket) = table.buckets.get(&hash) {
            if let Some(hit) = bucket.iter().find(|c| eq_lower(c, s)) {
                return Arc::clone(hit);
            }
        }
        let fresh: Arc<str> = if s.bytes().any(|b| b.is_ascii_uppercase()) {
            Arc::from(s.to_ascii_lowercase())
        } else {
            Arc::from(s)
        };
        if s.len() <= Interner::MAX_NAME && table.interned < Interner::CAPACITY {
            table.interned += 1;
            table
                .buckets
                .entry(hash)
                .or_default()
                .push(Arc::clone(&fresh));
        }
        fresh
    }

    /// Distinct strings currently retained (diagnostics and tests).
    pub fn len(&self) -> usize {
        self.table
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .interned
    }

    /// True when nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FNV-1a over the ASCII-lowercased bytes of `s`, no allocation.
fn fnv1a_lower(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        hash ^= u64::from(b.to_ascii_lowercase());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Is `candidate` (already lowercase) the ASCII-case-folded form of `s`?
fn eq_lower(candidate: &str, s: &str) -> bool {
    candidate.len() == s.len()
        && candidate
            .bytes()
            .zip(s.bytes())
            .all(|(c, b)| c == b.to_ascii_lowercase())
}
