//! Unit and property tests for the HTTP substrate (the server's own
//! tests live with it in `oak-edge`).

use crate::cookie::{
    format_cookie_header, format_set_cookie, get_cookie, parse_cookie_header, OAK_USER_COOKIE,
};
use crate::{Headers, HttpError, Method, Request, Response, StatusCode, Url};

#[test]
fn url_parses_components() {
    let u = Url::parse("http://CDN.Example.com:8080/a/b?x=1&y=2#frag").unwrap();
    assert_eq!(u.scheme(), "http");
    assert_eq!(u.host(), "cdn.example.com");
    assert_eq!(u.port(), Some(8080));
    assert_eq!(u.effective_port(), 8080);
    assert_eq!(u.path(), "/a/b");
    assert_eq!(u.query(), Some("x=1&y=2"));
    assert_eq!(u.request_target(), "/a/b?x=1&y=2");
}

#[test]
fn url_defaults() {
    let u = Url::parse("http://h.example").unwrap();
    assert_eq!(u.path(), "/");
    assert_eq!(u.effective_port(), 80);
    assert_eq!(
        Url::parse("https://h.example").unwrap().effective_port(),
        443
    );
}

#[test]
fn url_rejects_malformed() {
    for bad in [
        "",
        "noscheme",
        "http://",
        "http://user@host/x",
        "http://h:not_a_port/",
        "://host/",
        "ht tp://host/",
    ] {
        assert!(Url::parse(bad).is_err(), "{bad:?}");
    }
}

#[test]
fn url_display_roundtrip() {
    for text in [
        "http://h.example/",
        "http://h.example:81/a?q=1",
        "https://a.b.c/x/y/z",
    ] {
        let u = Url::parse(text).unwrap();
        assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
    }
}

#[test]
fn url_join_forms() {
    let base = Url::parse("http://site.example/dir/page.html?old=1").unwrap();
    assert_eq!(
        base.join("http://other.example/z").unwrap().to_string(),
        "http://other.example/z"
    );
    assert_eq!(
        base.join("//cdn.example/lib.js").unwrap().to_string(),
        "http://cdn.example/lib.js"
    );
    assert_eq!(
        base.join("/rooted.png").unwrap().to_string(),
        "http://site.example/rooted.png"
    );
    assert_eq!(
        base.join("sibling.css").unwrap().to_string(),
        "http://site.example/dir/sibling.css"
    );
    assert_eq!(
        base.join("../up.js").unwrap().to_string(),
        "http://site.example/up.js"
    );
    assert_eq!(
        base.join("a/./b/../c?n=2").unwrap().to_string(),
        "http://site.example/dir/a/c?n=2"
    );
    // Empty reference keeps the base path, drops the query.
    assert_eq!(base.join("").unwrap().path(), "/dir/page.html");
}

#[test]
fn url_site_and_externality() {
    let u = Url::parse("http://static.cdn.shop.example/img.png").unwrap();
    assert_eq!(u.site(), "shop.example");
    // Sub-domains of the origin are NOT external (paper §2).
    assert!(!u.is_external_to("www.shop.example"));
    assert!(u.is_external_to("other.example"));
    let bare = Url::parse("http://localhost/x").unwrap();
    assert_eq!(bare.site(), "localhost");
}

#[test]
fn headers_case_insensitive_multimap() {
    let mut h = Headers::new();
    h.append("Set-Cookie", "a=1");
    h.append("set-cookie", "b=2");
    h.set("Content-Type", "text/html");
    assert_eq!(h.get("SET-COOKIE"), Some("a=1"));
    assert_eq!(h.get_all("Set-Cookie").count(), 2);
    assert!(h.contains("content-TYPE"));
    h.set("content-type", "text/plain");
    assert_eq!(h.get_all("Content-Type").count(), 1);
    assert_eq!(h.remove("set-cookie"), 2);
    assert_eq!(h.len(), 1);
    assert!(!h.is_empty());
}

#[test]
fn request_roundtrip() {
    let req = Request::new(Method::Post, "/oak/report")
        .with_header("Cookie", "oak_uid=u-7")
        .with_body(br#"{"objects":[]}"#.to_vec(), "application/json");
    let parsed = Request::parse(&req.to_bytes()).unwrap();
    assert_eq!(parsed, req);
    assert_eq!(parsed.path(), "/oak/report");
    assert_eq!(parsed.header("COOKIE"), Some("oak_uid=u-7"));
}

#[test]
fn response_roundtrip() {
    let resp = Response::html("<html>hi</html>").with_header("X-Oak-Alternate", "cdn2.example");
    let parsed = Response::parse(&resp.to_bytes()).unwrap();
    assert_eq!(parsed, resp);
    assert_eq!(parsed.body_text(), "<html>hi</html>");
    assert!(parsed.status.is_success());
}

#[test]
fn parse_rejects_malformed() {
    assert!(matches!(
        Request::parse(b"FROB / HTTP/1.1\r\n\r\n"),
        Err(HttpError::Malformed(_))
    ));
    assert!(matches!(
        Request::parse(b"GET / HTTP/2\r\n\r\n"),
        Err(HttpError::Malformed(_))
    ));
    assert!(matches!(
        Request::parse(b"GET  HTTP/1.1\r\n\r\n"),
        Err(HttpError::Malformed(_))
    ));
    assert!(matches!(
        Request::parse(b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n"),
        Err(HttpError::Malformed(_))
    ));
    assert!(matches!(
        Response::parse(b"HTTP/1.1 abc OK\r\n\r\n"),
        Err(HttpError::Malformed(_))
    ));
}

#[test]
fn parse_detects_truncation() {
    assert!(matches!(
        Request::parse(b"GET / HTTP/1.1\r\n"),
        Err(HttpError::Truncated)
    ));
    assert!(matches!(
        Request::parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
        Err(HttpError::Truncated)
    ));
}

#[test]
fn body_respects_content_length_exactly() {
    let parsed = Request::parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nabEXTRA").unwrap();
    assert_eq!(parsed.body, b"ab");
}

#[test]
fn status_codes() {
    assert_eq!(StatusCode::OK.reason(), "OK");
    assert_eq!(StatusCode(503).reason(), "Service Unavailable");
    assert_eq!(StatusCode(299).reason(), "Unknown");
    assert!(StatusCode::NO_CONTENT.is_success());
    assert!(!StatusCode::NOT_FOUND.is_success());
}

#[test]
fn cookie_parsing() {
    assert_eq!(
        parse_cookie_header("a=1; oak_uid=u-42; junk; b=2"),
        [("a", "1"), ("oak_uid", "u-42"), ("b", "2")]
    );
    assert_eq!(get_cookie("a=1; b=2", "b"), Some("2"));
    assert_eq!(get_cookie("a=1", "missing"), None);
    assert_eq!(parse_cookie_header(""), []);
    assert_eq!(parse_cookie_header("=v; ;;"), []);
}

#[test]
fn cookie_formatting() {
    assert_eq!(
        format_set_cookie(OAK_USER_COOKIE, "u-1"),
        "oak_uid=u-1; Path=/"
    );
    assert_eq!(
        format_cookie_header(&[("a".into(), "1".into()), ("b".into(), "2".into())]),
        "a=1; b=2"
    );
}

#[test]
fn chunked_bodies_decode() {
    use crate::encode_chunked;
    let payload = b"hello chunked world, hello again".to_vec();
    let chunked = encode_chunked(&payload, 7);
    let mut raw = b"POST /oak/report HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    raw.extend_from_slice(&chunked);
    let parsed = Request::parse(&raw).unwrap();
    assert_eq!(parsed.body, payload);
}

#[test]
fn chunked_tolerates_extensions_and_rejects_garbage() {
    let ok = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\n\r\n";
    assert_eq!(Request::parse(ok).unwrap().body, b"hello");

    let bad_size = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\nhello\r\n0\r\n\r\n";
    assert!(matches!(
        Request::parse(bad_size),
        Err(HttpError::Malformed(_))
    ));

    let truncated = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel";
    assert!(matches!(
        Request::parse(truncated),
        Err(HttpError::Truncated)
    ));

    let missing_crlf =
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhelloXX0\r\n\r\n";
    assert!(matches!(
        Request::parse(missing_crlf),
        Err(HttpError::Malformed(_))
    ));
}

#[test]
fn chunked_roundtrip_various_chunk_sizes() {
    use crate::encode_chunked;
    let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
    for chunk_size in [1, 13, 4096, 100_000] {
        let mut raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&encode_chunked(&payload, chunk_size));
        assert_eq!(
            Request::parse(&raw).unwrap().body,
            payload,
            "chunk={chunk_size}"
        );
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Request serialize → parse is the identity.
        #[test]
        fn request_roundtrip(
            target in "/[a-z0-9/_.-]{0,24}",
            body in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let req = Request::new(Method::Post, &target)
                .with_body(body, "application/octet-stream");
            prop_assert_eq!(Request::parse(&req.to_bytes()).unwrap(), req);
        }

        /// Response serialize → parse is the identity.
        #[test]
        fn response_roundtrip(
            code in 100u16..600,
            body in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let resp = Response::new(StatusCode(code)).with_body(body, "text/plain");
            prop_assert_eq!(Response::parse(&resp.to_bytes()).unwrap(), resp);
        }

        /// The parsers never panic on arbitrary bytes.
        #[test]
        fn parsers_are_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = Request::parse(&bytes);
            let _ = Response::parse(&bytes);
        }

        /// Chunked encode → parse recovers the payload for any chunk size.
        #[test]
        fn chunked_roundtrip(
            payload in prop::collection::vec(any::<u8>(), 0..2048),
            chunk_size in 1usize..512,
        ) {
            let mut raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
            raw.extend_from_slice(&crate::encode_chunked(&payload, chunk_size));
            prop_assert_eq!(Request::parse(&raw).unwrap().body, payload);
        }

        /// URL parse/display round-trips.
        #[test]
        fn url_roundtrip(
            host in "[a-z]{1,8}(\\.[a-z]{1,8}){0,2}",
            path in "(/[a-z0-9]{0,6}){0,3}",
            port in prop::option::of(1u16..),
        ) {
            let text = match port {
                Some(p) => format!("http://{host}:{p}{path}"),
                None => format!("http://{host}{path}"),
            };
            let u = Url::parse(&text).unwrap();
            prop_assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        }

        /// join() is total for path-like references.
        #[test]
        fn join_is_total(reference in "[a-z0-9/?=.&_-]{0,32}") {
            let base = Url::parse("http://base.example/a/b").unwrap();
            if let Ok(joined) = base.join(&reference) {
                prop_assert!(joined.path().starts_with('/'));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// `host_of` reads a URL in one pass where `Url::parse` splits it
        /// clause by clause: over an alphabet dense in the bytes either
        /// one branches on, with and without a well-formed `://`, they
        /// accept the same texts and name the same host.
        #[test]
        fn host_of_agrees_with_url_parse(
            scheme in "[a-zA-Z+.-]{0,4}",
            separator in 0usize..6,
            rest in "[a-zA-Z0-9.:@/?# +é-]{0,12}",
        ) {
            let separator = ["://", "://", ":/", "//", ":", ""][separator];
            let text = format!("{scheme}{separator}{rest}");
            prop_assert_eq!(
                crate::host_of(&text).map(str::to_ascii_lowercase),
                Url::parse(&text).ok().map(|u| u.host().to_owned()),
                "{:?}", text
            );
        }
    }
}
