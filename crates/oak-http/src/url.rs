//! URL parsing and reference resolution.

use crate::error::HttpError;

/// A parsed URL.
///
/// Covers the subset Oak needs: `http`-style hierarchical URLs with host,
/// optional port, path, and query. Fragments are parsed and dropped (they
/// never reach the network). Userinfo is rejected — it does not occur on
/// resource URLs and is a classic spoofing vector in URL *matching*, which
/// is exactly what Oak does with rule text.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Url {
    scheme: String,
    host: String,
    port: Option<u16>,
    path: String,
    query: Option<String>,
}

impl Url {
    /// Parses an absolute URL.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::BadUrl`] when the scheme/host structure is
    /// missing or malformed.
    pub fn parse(text: &str) -> Result<Url, HttpError> {
        let bad = || HttpError::BadUrl(text.to_owned());
        let (scheme, rest) = text.split_once("://").ok_or_else(bad)?;
        if scheme.is_empty()
            || !scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '-' || c == '.')
        {
            return Err(bad());
        }
        // Split off fragment first, then query, then path.
        let rest = rest.split('#').next().unwrap_or(rest);
        let (authority_path, query) = match rest.split_once('?') {
            Some((ap, q)) => (ap, Some(q.to_owned())),
            None => (rest, None),
        };
        let (authority, path) = match authority_path.find('/') {
            Some(i) => (&authority_path[..i], authority_path[i..].to_owned()),
            None => (authority_path, "/".to_owned()),
        };
        if authority.contains('@') {
            return Err(bad());
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p.parse().map_err(|_| bad())?;
                (h, Some(port))
            }
            None => (authority, None),
        };
        if host.is_empty() || host.contains(['/', '?', '#', ' ']) {
            return Err(bad());
        }
        Ok(Url {
            scheme: scheme.to_ascii_lowercase(),
            host: host.to_ascii_lowercase(),
            port,
            path,
            query,
        })
    }

    /// Resolves `reference` against this base URL.
    ///
    /// Handles the reference forms that occur in pages: absolute URLs,
    /// protocol-relative (`//host/x`), absolute paths (`/x`), and relative
    /// paths (`x`, `../x`).
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::BadUrl`] if the combined result is invalid.
    pub fn join(&self, reference: &str) -> Result<Url, HttpError> {
        if reference.contains("://") {
            return Url::parse(reference);
        }
        if let Some(rest) = reference.strip_prefix("//") {
            return Url::parse(&format!("{}://{}", self.scheme, rest));
        }
        let mut out = self.clone();
        out.query = None;
        let (ref_path, ref_query) = match reference.split_once('?') {
            Some((p, q)) => (p, Some(q.to_owned())),
            None => (reference, None),
        };
        out.query = ref_query;
        if ref_path.starts_with('/') {
            out.path = normalize_path(ref_path);
        } else if !ref_path.is_empty() {
            let base_dir = match self.path.rfind('/') {
                Some(i) => &self.path[..=i],
                None => "/",
            };
            out.path = normalize_path(&format!("{base_dir}{ref_path}"));
        }
        Ok(out)
    }

    /// The scheme, lowercased (`http`).
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The hostname, lowercased.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The explicit port, if any.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The port in effect (explicit, or 80/443 by scheme).
    pub fn effective_port(&self) -> u16 {
        self.port
            .unwrap_or(if self.scheme == "https" { 443 } else { 80 })
    }

    /// The path (always starts with `/`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The query string without `?`, if present.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// Path plus query, as used on an HTTP request line.
    pub fn request_target(&self) -> String {
        match &self.query {
            Some(q) => format!("{}?{q}", self.path),
            None => self.path.clone(),
        }
    }

    /// The registrable-site key Oak uses to decide whether a host is
    /// *external*: the last two labels of the hostname (`cdn.a.example.com`
    /// → `example.com`). The paper does "not consider sub-domains of the
    /// original domain to be outside hosts" (§2).
    pub fn site(&self) -> &str {
        site_of(&self.host)
    }

    /// True if `other_host` belongs to a different site than this URL.
    pub fn is_external_to(&self, origin_host: &str) -> bool {
        site_of(&self.host) != site_of(origin_host)
    }
}

/// The hostname slice of an absolute URL, borrowed from the input and in
/// its original case, or `None` exactly when [`Url::parse`] would fail.
///
/// This is the allocation-free companion to `Url::parse(..).map(Url::host)`
/// for the report-ingest hot path, which only needs the host and calls
/// this once per reported object. The two must accept and reject
/// identical inputs. [`Url::parse`] splits the text clause by clause;
/// this reads it once, left to right, and each step below names the
/// clause it stands for.
pub fn host_of(text: &str) -> Option<&str> {
    let bytes = text.as_bytes();
    // The scheme is what precedes the first "://" and holds only scheme
    // characters, neither ':' nor '/' among them: so the first byte that
    // is not one must open that "://", and not at offset zero.
    let colon = bytes
        .iter()
        .position(|b| !(b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.')))?;
    if colon == 0 || !bytes[colon..].starts_with(b"://") {
        return None;
    }
    // The authority runs to the first '#', '?' or '/' (fragment, query
    // and path are cut in that order, so whichever comes first ends it).
    let start = colon + 3;
    let mut end = bytes.len();
    let mut last_colon = None;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'#' | b'?' | b'/' => {
                end = i;
                break;
            }
            // No userinfo; and the authority holds no '/', '?' or '#' by
            // construction, so a space is all that can spoil the host.
            b'@' | b' ' => return None,
            b':' => last_colon = Some(i),
            _ => {}
        }
    }
    // What follows the last colon is a port, and must parse as one.
    let host_end = match last_colon {
        Some(i) => {
            text[i + 1..end].parse::<u16>().ok()?;
            i
        }
        None => end,
    };
    (host_end > start).then(|| &text[start..host_end])
}

/// Last-two-labels site key (see [`Url::site`]).
pub(crate) fn site_of(host: &str) -> &str {
    let mut dots = host.rmatch_indices('.');
    let _tld_dot = dots.next();
    match dots.next() {
        Some((i, _)) => &host[i + 1..],
        None => host,
    }
}

/// Removes `.` and `..` segments.
fn normalize_path(path: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "." | "" => {}
            ".." => {
                out.pop();
            }
            s => out.push(s),
        }
    }
    let mut joined = String::from("/");
    joined.push_str(&out.join("/"));
    if path.ends_with('/') && joined != "/" {
        joined.push('/');
    }
    joined
}

impl std::fmt::Display for Url {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        write!(f, "{}", self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}
