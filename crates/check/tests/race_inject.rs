//! Detector self-tests with the injected bugs:
//!
//! * the `check-inject`-gated `VersionWord::write_end_missing_release`
//!   writer exit must be caught as a data race on the payload, minimized
//!   to a two-access witness, and reproducible from its committed
//!   fixture;
//! * the find fast path that skips its ξ-epoch validations and its
//!   allocated check must be caught committing a read of a page freed
//!   under it, minimized, and reproducible from its committed fixture.
//!
//! Build with `--features "check-race check-inject"`.

#![cfg(all(feature = "check-race", feature = "check-inject"))]

use ceh_check::{
    explore, explore_litmus, litmus_by_name, replay, ExploreConfig, ScheduleFixture, Workload,
};

fn cfg() -> ExploreConfig {
    ExploreConfig {
        preemption_bound: 3,
        dpor: true,
        max_schedules: 200_000,
        race: true,
    }
}

/// The detector catches the missing-Release seqlock writer: the reader's
/// committed speculative payload reads have no happens-before edge to
/// the writer's stores, and the witness names the payload, both sites,
/// and both threads.
#[test]
fn injected_seqlock_race_is_caught_and_minimized() {
    let l = litmus_by_name("seqlock-missing-release").expect("inject litmus present");
    assert!(l.racy);
    let r = explore_litmus(&l, &cfg()).unwrap();
    let v = r.violation.expect("missing-Release seqlock must race");
    assert!(
        v.detail.contains("data race on `seq.payload"),
        "witness should blame the payload: {}",
        v.detail
    );
    assert!(
        v.detail.contains("speculative read (committed)"),
        "witness should show the committed speculative read: {}",
        v.detail
    );
    assert!(v.detail.contains("version.rs") || v.detail.contains("litmus.rs"));

    // The minimized schedule reproduces deterministically.
    let fix = v.to_fixture();
    assert!(replay(&fix).unwrap().is_some(), "minimized witness replays");

    // And round-trips through the fixture format.
    let parsed = ScheduleFixture::parse(&fix.serialize()).unwrap();
    assert_eq!(parsed, fix);
}

/// The correct seqlock stays clean under the same exploration — the
/// verdict flip is the missing Release alone.
#[test]
fn correct_seqlock_stays_clean_under_inject_build() {
    let l = litmus_by_name("seqlock-rw").unwrap();
    let r = explore_litmus(&l, &cfg()).unwrap();
    assert!(
        r.violation.is_none(),
        "correct seqlock raced: {:?}",
        r.violation.map(|v| v.detail)
    );
}

/// The committed fixture for the injected seqlock race reproduces. (The
/// generic corpus gate in tests/race.rs skips `# requires: check-inject`
/// fixtures on non-inject builds; this is the positive side.)
#[test]
fn committed_seqlock_fixture_reproduces() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/races/seqlock_missing_release.fixture"
    );
    let text = std::fs::read_to_string(path).expect("committed seqlock race fixture");
    assert!(text.contains("# requires: check-inject"));
    let fix = ScheduleFixture::parse(&text).unwrap();
    let detail = replay(&fix)
        .unwrap()
        .expect("seqlock fixture must reproduce its race");
    assert!(detail.contains("data race on `seq.payload"), "{detail}");
}

/// The unvalidated find on s1-find-merge: Solution 1's merge frees the
/// find's page without rewriting it, and with `poison_freed` off the
/// page keeps a plausible bucket. The mutated find reads it and commits
/// — with no happens-before edge to the deallocation, which the skipped
/// ξ-epoch validation would have supplied (or refused).
#[test]
fn unvalidated_find_is_caught_reading_a_freed_page() {
    let w = Workload::by_name("s1-find-merge").unwrap();
    assert!(
        !w.poison_freed,
        "the catch needs freed pages to keep their bytes"
    );
    let r = explore(&w, &cfg()).unwrap();
    let v = r
        .violation
        .expect("the unvalidated find must commit a read of a freed page");
    assert!(
        v.detail.contains("data race on `bucket.page.alloc`"),
        "witness should blame the page's deallocation: {}",
        v.detail
    );
    assert!(
        v.detail.contains("speculative read (committed)"),
        "witness should show the committed unlocked read: {}",
        v.detail
    );
    let fix = v.to_fixture();
    eprintln!("--- minimized fixture ---\n{}---", fix.serialize());
    assert!(replay(&fix).unwrap().is_some(), "minimized witness replays");
    let parsed = ScheduleFixture::parse(&fix.serialize()).unwrap();
    assert_eq!(parsed, fix);
}

/// The committed fixture for the unvalidated find reproduces. (On a
/// build without `check-inject`, tests/race.rs replays it clean.)
#[test]
fn committed_unvalidated_find_fixture_reproduces() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/races/optimistic_find_unvalidated.fixture"
    );
    let text = std::fs::read_to_string(path).expect("committed unvalidated-find fixture");
    assert!(text.contains("# requires: check-inject"));
    let fix = ScheduleFixture::parse(&text).unwrap();
    let detail = replay(&fix)
        .unwrap()
        .expect("unvalidated-find fixture must reproduce its race");
    assert!(
        detail.contains("data race on `bucket.page.alloc`"),
        "{detail}"
    );
}
