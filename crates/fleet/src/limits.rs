//! Concurrency limits: per-function and account-wide caps with 429-style
//! throttling, modelled on Lambda's reserved/account concurrency.

use serde::{Deserialize, Serialize};
use sizeless_obs::ThrottleCause;

/// In-flight bookkeeping against per-function and account-wide caps.
///
/// `try_acquire` / `release` bracket every invocation; the fleet checks the
/// function cap first (matching Lambda, where reserved concurrency carves
/// out of the account pool).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcurrencyLimits {
    function_limit: Option<usize>,
    account_limit: Option<usize>,
    per_function: Vec<usize>,
    total: usize,
}

impl ConcurrencyLimits {
    /// Limits for `functions` functions; `None` caps are unlimited.
    ///
    /// # Panics
    ///
    /// Panics if any provided cap is zero (a zero cap would throttle every
    /// request — configure the workload instead).
    pub fn new(
        functions: usize,
        function_limit: Option<usize>,
        account_limit: Option<usize>,
    ) -> Self {
        assert!(
            function_limit != Some(0) && account_limit != Some(0),
            "concurrency caps must be positive"
        );
        ConcurrencyLimits {
            function_limit,
            account_limit,
            per_function: vec![0; functions],
            total: 0,
        }
    }

    /// Reserves one slot for an invocation of `fn_id`, or reports which
    /// limit rejected it.
    pub fn try_acquire(&mut self, fn_id: usize) -> Result<(), ThrottleCause> {
        if self
            .function_limit
            .is_some_and(|cap| self.per_function[fn_id] >= cap)
        {
            return Err(ThrottleCause::Function);
        }
        if self.account_limit.is_some_and(|cap| self.total >= cap) {
            return Err(ThrottleCause::Account);
        }
        self.per_function[fn_id] += 1;
        self.total += 1;
        Ok(())
    }

    /// Releases a slot previously acquired for `fn_id`.
    ///
    /// # Panics
    ///
    /// Panics if no slot is held for `fn_id`.
    pub fn release(&mut self, fn_id: usize) {
        assert!(self.per_function[fn_id] > 0, "release without acquire");
        self.per_function[fn_id] -= 1;
        self.total -= 1;
    }

    /// Total requests currently holding a slot.
    pub fn in_flight(&self) -> usize {
        self.total
    }

    /// Requests of `fn_id` currently holding a slot.
    pub fn fn_in_flight(&self, fn_id: usize) -> usize {
        self.per_function[fn_id]
    }

    /// The uniform per-function cap, if any.
    pub fn function_limit(&self) -> Option<usize> {
        self.function_limit
    }

    /// The account-wide cap, if any.
    pub fn account_limit(&self) -> Option<usize> {
        self.account_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_limit_throttles_then_frees() {
        let mut l = ConcurrencyLimits::new(2, Some(2), None);
        assert!(l.try_acquire(0).is_ok());
        assert!(l.try_acquire(0).is_ok());
        assert_eq!(l.try_acquire(0), Err(ThrottleCause::Function));
        // The other function has its own cap.
        assert!(l.try_acquire(1).is_ok());
        l.release(0);
        assert!(l.try_acquire(0).is_ok());
        assert_eq!(l.in_flight(), 3);
    }

    #[test]
    fn account_limit_spans_functions() {
        let mut l = ConcurrencyLimits::new(3, None, Some(2));
        assert!(l.try_acquire(0).is_ok());
        assert!(l.try_acquire(1).is_ok());
        assert_eq!(l.try_acquire(2), Err(ThrottleCause::Account));
        l.release(1);
        assert!(l.try_acquire(2).is_ok());
    }

    #[test]
    fn function_limit_checked_before_account() {
        let mut l = ConcurrencyLimits::new(1, Some(1), Some(1));
        assert!(l.try_acquire(0).is_ok());
        assert_eq!(l.try_acquire(0), Err(ThrottleCause::Function));
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn unbalanced_release_panics() {
        let mut l = ConcurrencyLimits::new(1, None, None);
        l.release(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cap_rejected() {
        let _ = ConcurrencyLimits::new(1, Some(0), None);
    }
}
