//! Per-tenant admission control: a token bucket per tenant name.
//!
//! Each request costs one token. Buckets refill at
//! [`AdmissionConfig::rate_per_sec`] with a burst allowance of
//! [`AdmissionConfig::burst`]; an empty bucket means the tenant is over
//! its rate and the server answers 429 (`busy` on the line protocol).
//! Time is passed in by the caller as monotonic nanoseconds, so the
//! policy is purely arithmetic and deterministically testable.
//!
//! The tenant map is bounded: past [`AdmissionConfig::max_tenants`]
//! distinct names, further tenants share one overflow bucket — a
//! hostile client cycling tenant names cannot grow server memory.

use ddc_core::sync::Mutex;
use std::collections::HashMap;

/// Millitokens per token: buckets do integer arithmetic at 1/1000
/// granularity so slow refill rates still make progress.
const MILLI: u64 = 1_000;

/// Rate-limit policy. `rate_per_sec == 0` disables admission control.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Sustained requests per second allowed per tenant (0 = off).
    pub rate_per_sec: u64,
    /// Extra requests a tenant may burst above the sustained rate.
    pub burst: u64,
    /// Distinct tenant buckets tracked before falling back to one
    /// shared overflow bucket.
    pub max_tenants: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            rate_per_sec: 0,
            burst: 256,
            max_tenants: 1024,
        }
    }
}

#[derive(Copy, Clone, Debug)]
struct Bucket {
    /// Available millitokens.
    tokens: u64,
    /// Monotonic nanoseconds of the last refill.
    last_ns: u64,
}

/// The shared limiter. One instance per server; every worker thread
/// consults it before executing a request.
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl Admission {
    /// A limiter enforcing `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// The configured policy.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Charges one request to `tenant` at monotonic time `now_ns`.
    /// Returns `false` when the tenant is over its rate (the caller
    /// answers 429).
    pub fn admit(&self, tenant: &str, now_ns: u64) -> bool {
        if self.config.rate_per_sec == 0 {
            return true;
        }
        let cap_milli = self
            .config
            .rate_per_sec
            .saturating_add(self.config.burst)
            .saturating_mul(MILLI);
        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(ddc_core::sync::PoisonError::into_inner);
        // A known tenant is found by `&str`: only a new bucket allocates.
        if let Some(bucket) = buckets.get_mut(tenant) {
            return self.charge(bucket, now_ns, cap_milli);
        }
        let key = if buckets.len() >= self.config.max_tenants {
            "\u{0}overflow"
        } else {
            tenant
        };
        let bucket = buckets.entry(key.to_string()).or_insert(Bucket {
            tokens: cap_milli,
            last_ns: now_ns,
        });
        self.charge(bucket, now_ns, cap_milli)
    }

    /// Refills `bucket` for the time since its last charge, then takes
    /// one token from it if it has one.
    fn charge(&self, bucket: &mut Bucket, now_ns: u64, cap_milli: u64) -> bool {
        let elapsed = now_ns.saturating_sub(bucket.last_ns);
        bucket.last_ns = now_ns;
        let refill = (elapsed as u128 * self.config.rate_per_sec as u128 * MILLI as u128
            / 1_000_000_000)
            .min(cap_milli as u128) as u64;
        bucket.tokens = bucket.tokens.saturating_add(refill).min(cap_milli);
        if bucket.tokens >= MILLI {
            bucket.tokens -= MILLI;
            true
        } else {
            false
        }
    }

    /// Number of distinct tenant buckets currently tracked.
    pub fn tracked_tenants(&self) -> usize {
        self.buckets
            .lock()
            .unwrap_or_else(ddc_core::sync::PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn limiter(rate: u64, burst: u64) -> Admission {
        Admission::new(AdmissionConfig {
            rate_per_sec: rate,
            burst,
            max_tenants: 4,
        })
    }

    #[test]
    fn zero_rate_admits_everything() {
        let a = Admission::new(AdmissionConfig::default());
        for i in 0..10_000 {
            assert!(a.admit("anyone", i));
        }
        assert_eq!(a.tracked_tenants(), 0);
    }

    #[test]
    fn burst_then_sustained_rate() {
        let a = limiter(10, 5);
        // Full bucket: 15 requests pass, the 16th is rejected.
        let admitted = (0..20).filter(|_| a.admit("t", 0)).count();
        assert_eq!(admitted, 15);
        // One second later exactly `rate` more tokens exist.
        let refilled = (0..20).filter(|_| a.admit("t", SEC)).count();
        assert_eq!(refilled, 10);
        // A quarter second refills a quarter of the rate.
        let quarter = (0..20).filter(|_| a.admit("t", SEC + SEC / 4)).count();
        assert_eq!(quarter, 2);
    }

    #[test]
    fn tenants_are_isolated() {
        let a = limiter(1, 0);
        assert!(a.admit("a", 0));
        assert!(!a.admit("a", 0));
        assert!(a.admit("b", 0), "tenant b has its own bucket");
    }

    #[test]
    fn tenant_map_is_bounded_by_overflow_bucket() {
        let a = limiter(1, 0);
        for name in ["a", "b", "c", "d", "e", "f", "g"] {
            a.admit(name, 0);
        }
        // 4 named buckets + 1 shared overflow bucket.
        assert!(a.tracked_tenants() <= 5);
        // Overflow tenants share fate: e consumed the overflow token,
        // so z is rejected too.
        assert!(!a.admit("z", 0));
    }

    #[test]
    fn clock_going_backwards_is_tolerated() {
        let a = limiter(5, 0);
        assert!(a.admit("t", SEC));
        assert!(a.admit("t", 0), "stale timestamp must not panic or refund");
    }
}
