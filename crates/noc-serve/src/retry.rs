//! Bounded retry with capped exponential backoff and deterministic,
//! seed-derived jitter.
//!
//! Retrying a simulation point is only sound because a `(config, seed)`
//! pair fully determines its answer: a retried evaluation reruns with
//! the *same* seed and must produce bit-identical results, so a
//! transient panic (a cosmic-ray box, a chaos-injected fault) costs an
//! attempt, never determinism. The backoff jitter likewise comes from
//! the point's own seed family via [`noc_exp::derive_seed`], not a
//! clock or a global RNG, so a replayed request schedules the exact
//! same sleeps — retries are part of the deterministic record, not
//! noise on top of it.

use std::time::Instant;

use noc_exp::derive_seed;
use noc_exp::robust::{isolate, Diverged, PointOutcome};
use noc_sim::error::ConfigError;

/// Domain tag mixed into [`noc_exp::derive_seed`] for backoff jitter,
/// so the jitter stream never collides with the seeds the simulator
/// itself consumes.
const JITTER_DOMAIN: u64 = 0x6a69_7474_6572_0000; // "jitter"

/// Capped exponential backoff with bounded attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total evaluation attempts per point (first try included). Must
    /// be >= 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds; doubles per
    /// subsequent retry.
    pub base_ms: u64,
    /// Upper bound on any single backoff, in milliseconds.
    pub cap_ms: u64,
    /// Actually sleep between attempts. The service sets this; tests
    /// and the drain path disable it to stay fast (the *schedule* is
    /// still computed and deterministic either way).
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3, base_ms: 10, cap_ms: 1_000, sleep: true }
    }
}

impl RetryPolicy {
    /// Validate the policy.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_attempts == 0 {
            return Err(ConfigError::Parameter {
                name: "max_attempts",
                why: "at least one evaluation attempt is required".into(),
            });
        }
        if self.base_ms > self.cap_ms {
            return Err(ConfigError::Parameter {
                name: "base_ms",
                why: format!("backoff base {} exceeds cap {}", self.base_ms, self.cap_ms),
            });
        }
        Ok(())
    }

    /// Backoff before retry number `retry` (1-based) of the point
    /// seeded `seed`: `base * 2^(retry-1)` capped at `cap_ms`, jittered
    /// into `[half, full]` by the seed family. Pure function of
    /// `(policy, seed, retry)`.
    pub fn backoff_ms(&self, seed: u64, retry: u32) -> u64 {
        let full =
            self.base_ms.checked_shl(retry.saturating_sub(1)).unwrap_or(u64::MAX).min(self.cap_ms);
        let half = full / 2;
        half + derive_seed(seed, JITTER_DOMAIN + retry as u64) % (full - half + 1)
    }
}

/// Why a point ran out of attempts (or time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryError {
    /// Every permitted attempt panicked; carries the last message.
    Panicked {
        /// The final attempt's panic payload.
        message: String,
        /// Attempts consumed.
        attempts: u32,
    },
    /// Every permitted attempt exhausted its cycle budget.
    Diverged {
        /// The budget the final attempt exceeded.
        budget: u64,
        /// Attempts consumed.
        attempts: u32,
    },
    /// The wall-clock deadline passed before an attempt could start.
    Deadline {
        /// Attempts consumed before the deadline hit.
        attempts: u32,
    },
}

/// A successful evaluation plus the attempts it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Retried<R> {
    /// The evaluation result.
    pub value: R,
    /// Attempts consumed (1 = clean first try).
    pub attempts: u32,
}

/// Run `eval` under the policy: each attempt runs under
/// [`noc_exp::robust::isolate`], panics and cooperative [`Diverged`]
/// give-ups are retried, and each retry waits its deterministic
/// backoff. `eval` receives the 1-based attempt number.
/// An optional `deadline` is checked before every attempt (and before
/// every sleep), so a point never oversleeps its batch.
pub fn run_with_retry<R, F>(
    policy: &RetryPolicy,
    seed: u64,
    deadline: Option<Instant>,
    mut eval: F,
) -> Result<Retried<R>, RetryError>
where
    F: FnMut(u32) -> Result<R, Diverged>,
{
    let mut attempt = 0u32;
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(RetryError::Deadline { attempts: attempt });
        }
        attempt += 1;
        let failure = match isolate(|| eval(attempt)) {
            PointOutcome::Ok(value) => return Ok(Retried { value, attempts: attempt }),
            PointOutcome::Diverged { budget } => RetryError::Diverged { budget, attempts: attempt },
            PointOutcome::Panicked { message } => {
                RetryError::Panicked { message, attempts: attempt }
            }
        };
        if attempt >= policy.max_attempts {
            return Err(failure);
        }
        if policy.sleep {
            let wait = std::time::Duration::from_millis(policy.backoff_ms(seed, attempt));
            if let Some(d) = deadline {
                let now = Instant::now();
                if now + wait >= d {
                    return Err(RetryError::Deadline { attempts: attempt });
                }
            }
            std::thread::sleep(wait);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nosleep() -> RetryPolicy {
        RetryPolicy { sleep: false, ..RetryPolicy::default() }
    }

    #[test]
    fn clean_first_try_costs_one_attempt() {
        let r = run_with_retry(&nosleep(), 1, None, |_| Ok::<_, Diverged>(42)).unwrap();
        assert_eq!(r, Retried { value: 42, attempts: 1 });
    }

    #[test]
    fn panic_then_success_is_retried() {
        let r = run_with_retry(&nosleep(), 1, None, |attempt| {
            if attempt == 1 {
                panic!("injected");
            }
            Ok::<_, Diverged>(attempt)
        })
        .unwrap();
        assert_eq!(r, Retried { value: 2, attempts: 2 });
    }

    #[test]
    fn persistent_panic_exhausts_attempts_with_last_message() {
        let err = run_with_retry(&nosleep(), 1, None, |attempt| {
            panic!("boom {attempt}");
            #[allow(unreachable_code)]
            Ok::<u32, Diverged>(0)
        })
        .unwrap_err();
        assert_eq!(err, RetryError::Panicked { message: "boom 3".into(), attempts: 3 });
    }

    #[test]
    fn divergence_is_retried_then_reported_with_budget() {
        let err = run_with_retry(&nosleep(), 1, None, |_| Err::<u32, _>(Diverged { budget: 777 }))
            .unwrap_err();
        assert_eq!(err, RetryError::Diverged { budget: 777, attempts: 3 });
    }

    #[test]
    fn expired_deadline_preempts_the_first_attempt() {
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = run_with_retry(&nosleep(), 1, Some(past), |_| Ok::<_, Diverged>(1)).unwrap_err();
        assert_eq!(err, RetryError::Deadline { attempts: 0 });
    }

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let p = RetryPolicy { max_attempts: 10, base_ms: 10, cap_ms: 100, sleep: false };
        for retry in 1..=8 {
            let a = p.backoff_ms(0xdead_beef, retry);
            let b = p.backoff_ms(0xdead_beef, retry);
            assert_eq!(a, b, "same (seed, retry) -> same jitter");
            let full = (10u64 << (retry - 1)).min(100);
            assert!(a >= full / 2 && a <= full, "retry {retry}: {a} not in [{}, {full}]", full / 2);
        }
        // different seeds jitter differently somewhere in the family
        assert!((1..=8).any(|r| p.backoff_ms(1, r) != p.backoff_ms(2, r)));
        // overflow-proof at absurd retry counts
        assert!(p.backoff_ms(1, 63) <= 100);
        assert!(p.backoff_ms(1, u32::MAX) <= 100);
    }
}
