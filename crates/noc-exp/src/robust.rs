//! Crash-proof grid evaluation: the one panic boundary, divergence
//! budgets, and a resumable journal.
//!
//! [`crate::run_grid`] propagates a panic — correct for verified
//! production sweeps, fatal for exploratory ones where one degenerate
//! configuration (a deadlocking fault scenario, a diverging search)
//! should not poison the other 99 points. [`isolate`] is the
//! workspace's one panic boundary: it runs one evaluation and reports
//! a typed [`PointOutcome`] instead of unwinding. [`run_grid_robust`]
//! isolates every grid point, and the evaluation service's retry loop
//! isolates every attempt. The evaluation closure can also
//! *cooperatively* give up by returning [`Diverged`] when a cycle
//! budget runs out (the engine cannot preempt a stuck simulation from
//! outside — budget checks belong in the point's own stepping loop).
//!
//! [`run_grid_journal`] adds resumption: its journal is a [`Wal`] keyed
//! by point index, and every finished point is appended as it
//! completes. A rerun against the same file replays recorded outcomes
//! instead of re-evaluating them, resuming a partially completed grid
//! after a crash or an interrupt. [`Wal::open`] truncates a torn final
//! record, so a killed process just re-runs that point; complete
//! records that fail to parse re-run their points too.
//!
//! Panics escaping a worker still print the default panic-hook message
//! to stderr before being caught; that noise is deliberate (silencing
//! it would require swapping the process-global hook, which races with
//! concurrent tests).

use std::panic::AssertUnwindSafe;
use std::path::Path;

use crate::{run_unanswered, Progress, Wal};

/// Cooperative divergence marker: the point's evaluation loop exhausted
/// its cycle budget without converging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diverged {
    /// The budget (in whatever unit the evaluator counts — typically
    /// simulated cycles) that was exhausted.
    pub budget: u64,
}

/// The result of one robustly-evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome<R> {
    /// The point evaluated normally.
    Ok(R),
    /// The point's evaluation panicked; the sweep continued without it.
    Panicked {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The point gave up after exhausting its cycle budget.
    Diverged {
        /// The exhausted budget.
        budget: u64,
    },
}

impl<R> PointOutcome<R> {
    /// The successful result, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            PointOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// The successful result by reference, if any.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            PointOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// True for [`PointOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, PointOutcome::Ok(_))
    }
}

/// Render a caught panic payload (usually a `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run one evaluation and catch its panic, if any: `Ok` becomes
/// [`PointOutcome::Ok`], `Err(Diverged)` becomes
/// [`PointOutcome::Diverged`], and a panic becomes
/// [`PointOutcome::Panicked`] carrying its message.
pub fn isolate<R>(f: impl FnOnce() -> Result<R, Diverged>) -> PointOutcome<R> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(r)) => PointOutcome::Ok(r),
        Ok(Err(d)) => PointOutcome::Diverged { budget: d.budget },
        Err(payload) => PointOutcome::Panicked { message: panic_message(payload.as_ref()) },
    }
}

/// Evaluate every grid point like [`crate::run_grid`], but
/// [`isolate`] each one: a panicking point yields
/// [`PointOutcome::Panicked`], a point whose evaluator returns
/// `Err(Diverged)` yields [`PointOutcome::Diverged`], and every other
/// point completes normally. Results are in point order and parallel
/// evaluation is bit-identical to serial, exactly as for
/// [`crate::run_grid`].
pub fn run_grid_robust<T, R, F>(points: &[T], eval: F) -> Vec<PointOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, Diverged> + Sync,
{
    let unanswered = points.iter().map(|_| None).collect();
    run_metered("grid", points, unanswered, |i, p| isolate(|| eval(i, p)))
}

/// [`run_unanswered`] with a [`Progress`] meter over the points it
/// evaluates (answered points are not counted).
fn run_metered<T, O, F>(what: &str, points: &[T], answered: Vec<Option<O>>, eval: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(usize, &T) -> O + Sync,
{
    let progress = Progress::from_env(what, answered.iter().filter(|a| a.is_none()).count());
    let out = run_unanswered(points, answered, |i, p| {
        let out = eval(i, p);
        progress.point_done();
        out
    });
    progress.finish();
    out
}

/// Serializer for journaled point results: one line of text per result.
///
/// Implementations must round-trip (`decode(encode(r)) == Some(r)`) and
/// should return `None` from `decode` on schema mismatch — the point is
/// then re-evaluated instead of resuming with garbage.
pub trait PointCodec<R> {
    /// Encode a result as a single-line payload (newlines/tabs are
    /// escaped by the journal, not the codec).
    fn encode(&self, r: &R) -> String;
    /// Decode a payload; `None` re-runs the point.
    fn decode(&self, s: &str) -> Option<R>;
}

/// Parse one journal record — key `index`, payload `kind\t<codec
/// payload>` — into `(index, outcome)`; `None` re-runs the point.
fn parse_record<R>(
    key: &str,
    payload: &str,
    codec: &impl PointCodec<R>,
) -> Option<(usize, PointOutcome<R>)> {
    let index = key.parse().ok()?;
    let (kind, payload) = payload.split_once('\t')?;
    let outcome = match kind {
        "ok" => PointOutcome::Ok(codec.decode(payload)?),
        "panicked" => PointOutcome::Panicked { message: payload.to_string() },
        "diverged" => PointOutcome::Diverged { budget: payload.parse().ok()? },
        _ => return None,
    };
    Some((index, outcome))
}

/// Render an outcome as a journal record payload, `kind\t<codec payload>`.
fn render_record<R>(outcome: &PointOutcome<R>, codec: &impl PointCodec<R>) -> String {
    match outcome {
        PointOutcome::Ok(r) => format!("ok\t{}", codec.encode(r)),
        PointOutcome::Panicked { message } => format!("panicked\t{message}"),
        PointOutcome::Diverged { budget } => format!("diverged\t{budget}"),
    }
}

/// [`run_grid_robust`] with a resumable journal at `path`: a [`Wal`]
/// whose records are keyed by point index.
///
/// Outcomes already recorded in the journal (of **any** kind — a
/// recorded panic is not retried; delete the journal to retry) are
/// replayed without re-evaluation, last record wins; the rest run
/// through the robust grid, each under its original index. Every fresh
/// outcome is appended as soon as it completes ([`Wal::append`]: one
/// `write`, an `fsync` every [`crate::wal::WAL_SYNC_BATCH`] records) and
/// [`Wal::commit`] syncs the final batch before this returns, so even a
/// machine crash loses at most one batch of finished points.
///
/// A **torn final record** — the signature of a process killed
/// mid-append — is truncated by [`Wal::open`] and its point re-runs.
/// Complete records that fail to parse (unknown kind, a payload the
/// codec rejects, an index beyond this grid) are skipped and their
/// points re-run. Journals in the older `index\tkind\tpayload` line
/// format replay unchanged: the WAL reads such a line as key `index`,
/// payload `kind\tpayload`.
///
/// # Errors
/// Only on journal I/O failure (open/append/sync); evaluation failures
/// are values, per [`run_grid_robust`].
pub fn run_grid_journal<T, R, F, C>(
    points: &[T],
    path: &Path,
    codec: &C,
    eval: F,
) -> std::io::Result<Vec<PointOutcome<R>>>
where
    T: Sync,
    R: Send,
    C: PointCodec<R> + Sync,
    F: Fn(usize, &T) -> Result<R, Diverged> + Sync,
{
    let (wal, replay) = Wal::open(path)?;
    let mut answered: Vec<Option<std::io::Result<PointOutcome<R>>>> =
        points.iter().map(|_| None).collect();
    for (key, payload) in &replay.records {
        if let Some((i, outcome)) = parse_record(key, payload, codec) {
            if let Some(slot) = answered.get_mut(i) {
                *slot = Some(Ok(outcome));
            }
        }
    }
    let outcomes = run_metered("journal grid", points, answered, |i, p| {
        let outcome = isolate(|| eval(i, p));
        wal.append(&i.to_string(), &render_record(&outcome, codec))?;
        Ok(outcome)
    });
    wal.commit()?;
    outcomes.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct U64Codec;
    impl PointCodec<u64> for U64Codec {
        fn encode(&self, r: &u64) -> String {
            r.to_string()
        }
        fn decode(&self, s: &str) -> Option<u64> {
            s.parse().ok()
        }
    }

    fn eval_with_failures(i: usize, &p: &u64) -> Result<u64, Diverged> {
        if i == 3 {
            panic!("deliberate failure at point 3");
        }
        if i == 5 {
            return Err(Diverged { budget: 1_000 });
        }
        Ok(p * 10)
    }

    #[test]
    fn robust_isolates_panics_and_divergence() {
        let points: Vec<u64> = (0..8).collect();
        let out = run_grid_robust(&points, eval_with_failures);
        assert_eq!(out.len(), 8);
        for (i, o) in out.iter().enumerate() {
            match i {
                3 => assert_eq!(
                    o,
                    &PointOutcome::Panicked { message: "deliberate failure at point 3".into() }
                ),
                5 => assert_eq!(o, &PointOutcome::Diverged { budget: 1_000 }),
                _ => assert_eq!(o, &PointOutcome::Ok(i as u64 * 10)),
            }
        }
    }

    #[test]
    fn journal_resumes_without_reevaluating() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.journal");
        let _ = std::fs::remove_file(&path);

        let points: Vec<u64> = (0..8).collect();
        let first = run_grid_journal(&points, &path, &U64Codec, eval_with_failures).unwrap();
        assert_eq!(first.iter().filter(|o| o.is_ok()).count(), 6);

        // second run must replay every outcome from the journal
        let evals = AtomicUsize::new(0);
        let second = run_grid_journal(&points, &path, &U64Codec, |i, p| {
            evals.fetch_add(1, Ordering::Relaxed);
            eval_with_failures(i, p)
        })
        .unwrap();
        assert_eq!(evals.load(Ordering::Relaxed), 0, "all points must come from the journal");
        assert_eq!(first, second);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_tolerates_a_torn_final_record() {
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        // two complete records, then a record torn mid-payload by a
        // simulated SIGKILL: no trailing newline
        std::fs::write(&path, "0\tok\t100\n1\tok\t200\n2\tok\t3").unwrap();
        let points: Vec<u64> = (0..3).collect();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let evals = AtomicUsize::new(0);
        let out = run_grid_journal(&points, &path, &U64Codec, |_, &p| {
            evals.fetch_add(1, Ordering::Relaxed);
            Ok(p * 10 + 7)
        })
        .unwrap();
        assert_eq!(out[0], PointOutcome::Ok(100), "complete records replay");
        assert_eq!(out[1], PointOutcome::Ok(200));
        assert_eq!(out[2], PointOutcome::Ok(27), "the torn point re-runs");
        assert_eq!(evals.load(Ordering::Relaxed), 1, "only the torn point is re-evaluated");
        // the re-run's record was appended on its own line: a fresh
        // resume replays all three without evaluating anything
        let evals2 = AtomicUsize::new(0);
        let again = run_grid_journal(&points, &path, &U64Codec, |_, &p| {
            evals2.fetch_add(1, Ordering::Relaxed);
            Ok(p)
        })
        .unwrap();
        assert_eq!(evals2.load(Ordering::Relaxed), 0, "the torn bytes were truncated on resume");
        assert_eq!(again[0], PointOutcome::Ok(100));
        assert_eq!(again[1], PointOutcome::Ok(200));
        assert_eq!(again[2], PointOutcome::Ok(27));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_resume_does_not_glue_onto_a_torn_record() {
        struct AnyString;
        impl PointCodec<String> for AnyString {
            fn encode(&self, r: &String) -> String {
                r.clone()
            }
            fn decode(&self, s: &str) -> Option<String> {
                Some(s.to_string())
            }
        }
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("glue.journal");
        // point 2's record was torn mid-payload; a codec that accepts any
        // string would take a glued line as a valid answer
        std::fs::write(&path, "0\tok\tp0\n1\tok\tp1\n2\tok\tpart").unwrap();
        let points: Vec<u64> = (0..3).collect();
        let eval = |_: usize, &p: &u64| Ok(format!("p{p}"));
        let first = run_grid_journal(&points, &path, &AnyString, eval).unwrap();
        assert_eq!(first[2], PointOutcome::Ok("p2".to_string()), "the torn point re-runs");
        let evals = AtomicUsize::new(0);
        let second = run_grid_journal(&points, &path, &AnyString, |i, p| {
            evals.fetch_add(1, Ordering::Relaxed);
            eval(i, p)
        })
        .unwrap();
        assert_eq!(second[2], PointOutcome::Ok("p2".to_string()), "the evaluated value replays");
        assert_eq!(evals.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_skips_corrupt_lines_and_reruns_them() {
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.journal");
        // a valid record for point 1, a garbage index, and a torn line
        // missing its payload field
        std::fs::write(&path, "1\tok\t999\nzz\tok\t5\n3\tok\n").unwrap();
        let points: Vec<u64> = (0..4).collect();
        let out = run_grid_journal(&points, &path, &U64Codec, |_, &p| Ok(p + 1)).unwrap();
        assert_eq!(out[1], PointOutcome::Ok(999), "valid record replays");
        assert_eq!(out[0], PointOutcome::Ok(1), "unrecorded point evaluates");
        assert_eq!(out[3], PointOutcome::Ok(4), "corrupt record re-runs its point");
        let _ = std::fs::remove_file(&path);
    }
}
