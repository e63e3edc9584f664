//! Race-detector acceptance: litmus verdicts, race-checked protocol
//! workloads, and the committed race-fixture corpus.
//!
//! Build with `--features check-race`. The injected-seqlock litmus and
//! its fixture additionally need `check-inject` and are covered by
//! `tests/race_inject.rs`.

#![cfg(feature = "check-race")]

use ceh_check::{
    explore, explore_litmus, litmus_corpus, replay, ExploreConfig, ScheduleFixture, Workload,
};

fn cfg(bound: usize) -> ExploreConfig {
    ExploreConfig {
        preemption_bound: bound,
        dpor: true,
        max_schedules: 200_000,
        race: true,
    }
}

/// Every litmus program's detector verdict matches its known one, and
/// racy verdicts come with a minimized two-access witness naming both
/// sites and both threads.
#[test]
fn litmus_corpus_verdicts_match() {
    for l in litmus_corpus() {
        let r = explore_litmus(&l, &cfg(3)).unwrap_or_else(|e| panic!("{}: {e}", l.name));
        assert!(
            r.verdict_matches(),
            "litmus {}: expected racy={}, got {:?}",
            l.name,
            l.racy,
            r.violation.map(|v| v.detail)
        );
        if let Some(v) = &r.violation {
            assert!(
                v.detail.contains("data race on"),
                "{}: {}",
                l.name,
                v.detail
            );
            assert!(v.detail.contains(" vs "), "{}: {}", l.name, v.detail);
            assert!(v.detail.contains(".rs:"), "{}: {}", l.name, v.detail);
            assert!(
                v.race,
                "{}: race violations must carry the race flag",
                l.name
            );
            // Minimization produced a schedule that still reproduces.
            let again = replay(&v.to_fixture()).unwrap();
            assert!(
                again.is_some(),
                "{}: minimized schedule no longer reproduces",
                l.name
            );
        }
    }
}

/// A racy litmus's minimized violation survives a serialize/parse
/// round-trip and still replays to a race.
#[test]
fn racy_litmus_fixture_roundtrips() {
    let l = ceh_check::litmus_by_name("mp-relaxed").unwrap();
    let r = explore_litmus(&l, &cfg(3)).unwrap();
    let v = r.violation.expect("mp-relaxed is racy");
    let fix = v.to_fixture();
    let parsed = ScheduleFixture::parse(&fix.serialize()).unwrap();
    assert_eq!(parsed, fix);
    assert!(parsed.race);
    assert_eq!(parsed.workload, "litmus:mp-relaxed");
    assert!(replay(&parsed).unwrap().is_some());
}

/// Every deterministic protocol workload runs race-clean at
/// preemption bound 2 with the detector on — the lock-edge model admits
/// the ρ/α/ξ protocol. (The CI race_smoke gate re-runs these at bound 3
/// through `ceh check race`.)
#[test]
fn workloads_are_race_clean() {
    for w in Workload::all() {
        let r = explore(&w, &cfg(2)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            r.violation.is_none(),
            "workload {} raced: {:?}",
            w.name,
            r.violation.map(|v| v.detail)
        );
    }
}

/// Replay gate over the committed race-fixture corpus: every fixture in
/// `tests/fixtures/races/` must still REPRODUCE its race (the inverse of
/// the schedules corpus, whose fixtures guard *fixed* bugs and must run
/// clean). Fixtures marked `# requires: check-inject` are skipped when
/// that feature is off.
#[test]
fn race_fixture_corpus_reproduces() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/races");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(dir).expect("race fixture corpus dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("fixture") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        if text.contains("# requires: check-inject") && cfg!(not(feature = "check-inject")) {
            continue;
        }
        seen += 1;
        let fix = ScheduleFixture::parse(&text)
            .unwrap_or_else(|e| panic!("{}: bad fixture: {e}", path.display()));
        let got = replay(&fix).unwrap_or_else(|e| panic!("{}: replay failed: {e}", path.display()));
        let detail = got.unwrap_or_else(|| {
            panic!(
                "{}: fixture no longer reproduces its race — if the race was \
                 deliberately fixed, delete the fixture",
                path.display()
            )
        });
        assert!(
            detail.contains("data race on"),
            "{}: reproduced a non-race violation: {detail}",
            path.display()
        );
    }
    assert!(seen > 0, "race fixture corpus is empty");
}

/// The committed witness for the injected unvalidated find replays
/// clean on the correct find: its read of the freed page is refused and
/// the find falls back to ρ locks. (With `check-inject`,
/// tests/race_inject.rs requires it to reproduce instead.)
#[cfg(not(feature = "check-inject"))]
#[test]
fn unvalidated_find_fixture_replays_clean_on_the_validated_find() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/races/optimistic_find_unvalidated.fixture"
    );
    let text = std::fs::read_to_string(path).expect("committed unvalidated-find fixture");
    let fix = ScheduleFixture::parse(&text).unwrap();
    assert!(fix.race);
    assert_eq!(
        replay(&fix).unwrap(),
        None,
        "the validated find must not race"
    );
}
