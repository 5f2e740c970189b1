//! Replay compatibility of `run_grid_journal` with journals written in
//! the original `index\tkind\tpayload` line format.
//!
//! `fixtures/legacy_format.journal` holds those exact bytes: an `ok`
//! record whose payload escapes a tab, a newline and a backslash, a
//! `panicked` record with an escaped newline, a `diverged` record, a
//! record for an index beyond the grid, a non-numeric index and a
//! payload-less `3\tok` line. Whatever the journal writes today, a file
//! like this must keep replaying.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use noc_exp::{run_grid_journal, PointCodec, PointOutcome};

struct StringCodec;
impl PointCodec<String> for StringCodec {
    fn encode(&self, r: &String) -> String {
        r.clone()
    }
    fn decode(&self, s: &str) -> Option<String> {
        Some(s.to_string())
    }
}

fn scratch_copy(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc_exp_journal_compat_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_format.journal");
    std::fs::copy(fixture, &path).unwrap();
    path
}

#[test]
fn legacy_format_journal_replays_and_evaluates_only_the_rest() {
    let path = scratch_copy("legacy.journal");
    let points: Vec<u64> = (0..5).collect();
    let evaluated = Mutex::new(Vec::new());
    let out = run_grid_journal(&points, &path, &StringCodec, |i, &p| {
        evaluated.lock().unwrap().push(i);
        Ok(format!("fresh {p}"))
    })
    .unwrap();
    assert_eq!(out[0], PointOutcome::Ok("tab\there\nnewline\\backslash".to_string()));
    assert_eq!(out[1], PointOutcome::Panicked { message: "first line\nsecond line".into() });
    assert_eq!(out[2], PointOutcome::Diverged { budget: 5000 });
    assert_eq!(out[3], PointOutcome::Ok("fresh 3".to_string()), "payload-less line re-runs");
    assert_eq!(out[4], PointOutcome::Ok("fresh 4".to_string()), "unrecorded point evaluates");
    let mut evaluated = evaluated.into_inner().unwrap();
    evaluated.sort_unstable();
    assert_eq!(evaluated, vec![3, 4], "only the unanswered points are evaluated");

    // the records appended to the old-format file replay as well
    let evals = AtomicUsize::new(0);
    let again = run_grid_journal(&points, &path, &StringCodec, |_, _| {
        evals.fetch_add(1, Ordering::Relaxed);
        Ok(String::new())
    })
    .unwrap();
    assert_eq!(evals.load(Ordering::Relaxed), 0, "every point replays on the next resume");
    assert_eq!(again, out);
    let _ = std::fs::remove_file(&path);
}
