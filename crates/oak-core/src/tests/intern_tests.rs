//! The domain interner: case-insensitive dedup, zero-allocation hits,
//! and the hostile-growth capacity cap.

use std::sync::Arc;

use crate::intern::Interner;

#[test]
fn same_name_shares_one_allocation() {
    let interner = Interner::new();
    let a = interner.intern_lower("cdn.example");
    let b = interner.intern_lower("cdn.example");
    assert!(Arc::ptr_eq(&a, &b));
    assert_eq!(interner.len(), 1);
}

#[test]
fn case_variants_fold_to_one_entry() {
    let interner = Interner::new();
    let lower = interner.intern_lower("cdn.example");
    let upper = interner.intern_lower("CDN.Example");
    let mixed = interner.intern_lower("cDn.ExAmPlE");
    assert!(Arc::ptr_eq(&lower, &upper));
    assert!(Arc::ptr_eq(&lower, &mixed));
    assert_eq!(&*upper, "cdn.example");
    assert_eq!(interner.len(), 1);
}

#[test]
fn distinct_names_are_distinct() {
    let interner = Interner::new();
    let a = interner.intern_lower("a.example");
    let b = interner.intern_lower("b.example");
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(interner.len(), 2);
    assert!(!interner.is_empty());
}

#[test]
fn non_ascii_names_intern_verbatim() {
    let interner = Interner::new();
    // ASCII folding only: non-ASCII bytes pass through untouched, and
    // must round-trip exactly.
    let name = interner.intern_lower("bücher.example");
    assert_eq!(&*name, "bücher.example");
    assert!(!Arc::ptr_eq(
        &name,
        &interner.intern_lower("BÜCHER.example")
    ));
}

/// Past [`Interner::CAPACITY`] distinct names the table stops retaining:
/// results stay correct, memory stays bounded.
#[test]
fn capacity_caps_retention() {
    let interner = Interner::new();
    for i in 0..Interner::CAPACITY + 100 {
        let name = interner.intern_lower(&format!("host-{i}.example"));
        assert_eq!(&*name, &format!("host-{i}.example"));
    }
    assert!(interner.len() <= Interner::CAPACITY);
    // Overflow names still fold correctly, they just aren't shared.
    let over = interner.intern_lower("OVERFLOW.example");
    assert_eq!(&*over, "overflow.example");
}

/// A name longer than any DNS name is returned, lowercased, but never
/// retained: [`Interner::CAPACITY`] names of at most
/// [`Interner::MAX_NAME`] bytes bound the table's memory.
#[test]
fn names_past_the_dns_limit_are_not_retained() {
    let interner = Interner::new();
    let long = "x".repeat(Interner::MAX_NAME + 1);
    let first = interner.intern_lower(&long);
    let again = interner.intern_lower(&long.to_ascii_uppercase());
    assert_eq!((&*first, &*again), (long.as_str(), long.as_str()));
    assert!(!Arc::ptr_eq(&first, &again));
    assert_eq!(interner.len(), 0);
    let longest = "y".repeat(Interner::MAX_NAME);
    let shared = interner.intern_lower(&longest);
    assert!(Arc::ptr_eq(&shared, &interner.intern_lower(&longest)));
    assert_eq!(interner.len(), 1);
}
