//! Disabled-by-default semantics (own process: nothing here ever calls
//! `set_enabled(true)`).

use nanomap_observe as observe;
use nanomap_observe::span;

#[test]
fn everything_is_a_noop_while_disabled() {
    assert!(!observe::enabled());
    {
        let _s = span!("ghost", attr = 1u32);
    }
    observe::counter("ghost.count").add(99);
    observe::histogram("ghost.hist").record(7);

    let snap = observe::snapshot();
    assert!(snap.spans.is_empty(), "no spans recorded while disabled");
    assert_eq!(snap.counter("ghost.count"), 0);
    assert_eq!(snap.histograms["ghost.hist"].count, 0);

    // The JSON sink still emits a valid (empty) document.
    let json = snap.to_json().to_compact_string();
    observe::json::parse(&json).expect("valid JSON");
}
