//! An invoker host: finite memory shared by per-function warm pools.
//!
//! A host owns warm pools for every function that has ever been placed on
//! it. Placing a cold instance commits the function's configured memory
//! size until the instance is reclaimed (keep-alive expiry, eviction, or
//! end-of-run finalization); a host at capacity evicts its least-recently
//! used idle instances — across all functions — to make room, and refuses
//! placement when even that is not enough.
//!
//! Pools are **generational** to support runtime memory-size transitions
//! (the closed-loop right-sizer's resize directives): each `(function,
//! size)` deployment generation gets its own [`WarmPool`]. On a resize the
//! old generation is retired — its idle instances are evicted immediately,
//! its in-flight instances drain (they complete, are accounted at the old
//! size, and are reclaimed on release instead of going warm) — while new
//! requests cold-start into a fresh pool at the new size. A [`Placement`]
//! remembers which generation an invocation started on so completions
//! always release into the right pool.
//!
//! # Running totals and reaps
//!
//! The host keeps its committed and idle memory as running totals, updated
//! on every provisioning, release, reuse, expiry and eviction, instead of
//! re-summing its pools. Instance sizes are whole MB, so the totals are
//! integers and equal a from-scratch re-sum exactly (the fleet's invariant
//! checks compare the two after every event). A host-wide lower bound on
//! the pools' next keep-alive deadlines decides whether anything can be
//! due, so [`Host::committed_mb`], [`Host::free_mb`], [`Host::load`],
//! [`Host::feasible`], [`Host::warm_idle`] and [`Host::try_begin`] cost
//! O(1) while nothing is.
//!
//! Reaps happen where they always did: a host-wide query (committed, free
//! or evictable memory, load, feasibility past the warm check, eviction)
//! reaps every pool on the host, and [`Host::warm_idle`] and the start of
//! [`Host::try_begin`] reap the function's active pool only — the bound
//! just skips pools with nothing due. That matters because each pool's
//! `wasted_idle_ms` is a float sum: a reap adds the windows of the
//! instances it reclaims in provisioning order, and reaping a pool at
//! other times would batch those additions differently and move reports
//! in their last bits.

use sizeless_platform::pool::{InstanceId, WarmPool};
use std::collections::VecDeque;

/// One pool generation of a function on a host: the memory each instance
/// commits, fixed at creation.
#[derive(Debug, Clone)]
struct FnPool {
    mem_mb: f64,
    /// `mem_mb` as an integer, the unit of the host's running totals.
    mb: u64,
    pool: WarmPool,
}

impl FnPool {
    fn new(mem_mb: f64, default_ttl_ms: f64) -> Self {
        assert!(
            mem_mb >= 0.0 && mem_mb.fract() == 0.0,
            "instance memory must be a whole number of MB"
        );
        FnPool {
            mem_mb,
            mb: mem_mb as u64,
            pool: WarmPool::new(default_ttl_ms),
        }
    }

    /// Reaps the pool at `now_ms`; returns the MB its expired instances
    /// held.
    fn reap_mb(&mut self, now_ms: f64) -> u64 {
        self.pool.reap(now_ms) as u64 * self.mb
    }
}

/// A started invocation's location on a host: the pool generation it was
/// placed in plus the instance within that pool. Pass it back to
/// [`Host::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Absolute generation id — stays valid even after older, fully
    /// drained generations are pruned.
    generation: usize,
    instance: InstanceId,
}

/// A function's pool generations on one host. Generations retire in order
/// (oldest first), so fully drained ones are pruned from the front with
/// their counters folded into the host totals; `first` keeps the absolute
/// ids in outstanding [`Placement`]s valid.
#[derive(Debug, Clone, Default)]
struct FnGens {
    /// Absolute generation id of `gens[0]`.
    first: usize,
    gens: VecDeque<FnPool>,
}

impl FnGens {
    fn active_mut(&mut self) -> Option<&mut FnPool> {
        self.gens.back_mut()
    }

    fn get_mut(&mut self, generation: usize) -> Option<&mut FnPool> {
        self.gens.get_mut(generation.checked_sub(self.first)?)
    }
}

/// An invoker host with finite memory capacity.
#[derive(Debug, Clone)]
pub struct Host {
    id: usize,
    capacity_mb: f64,
    /// Pool generations per function id.
    pools: Vec<FnGens>,
    /// MB held by live (warm or busy) instances across every pool.
    committed_mb: u64,
    /// MB held by warm idle instances — the evictable part of
    /// `committed_mb`.
    idle_mb: u64,
    /// No pool on the host has an instance due before this time.
    next_deadline_ms: f64,
    busy_mb_ms: f64,
    resize_drains: usize,
    /// Counters folded in from pruned (fully drained) generations.
    pruned_provisioned: usize,
    pruned_evictions: usize,
    pruned_expirations: usize,
    pruned_wasted_mb_ms: f64,
    /// Cleared by [`Host::crash`], restored by [`Host::rejoin`]. A down
    /// host serves nothing: placement, feasibility, and warm reuse all
    /// refuse until rejoin.
    available: bool,
}

impl Host {
    /// Creates a host with `capacity_mb` megabytes for instances.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is strictly positive.
    pub fn new(id: usize, capacity_mb: f64) -> Self {
        assert!(
            capacity_mb > 0.0 && capacity_mb.is_finite(),
            "host capacity must be positive"
        );
        Host {
            id,
            capacity_mb,
            pools: Vec::new(),
            committed_mb: 0,
            idle_mb: 0,
            next_deadline_ms: f64::INFINITY,
            busy_mb_ms: 0.0,
            resize_drains: 0,
            pruned_provisioned: 0,
            pruned_evictions: 0,
            pruned_expirations: 0,
            pruned_wasted_mb_ms: 0.0,
            available: true,
        }
    }

    /// Whether the host is up (not inside a crash's downtime window).
    pub fn is_available(&self) -> bool {
        self.available
    }

    /// Crashes the host at `now_ms`: every pool generation is destroyed —
    /// idle instances accrue their waste and count as evictions, in-flight
    /// instances are torn down (their partially accrued busy time is
    /// deliberately dropped: work lost to a crash is not billable
    /// utilization) — and the host refuses all placements until
    /// [`Host::rejoin`]. Outstanding [`Placement`]s become dangling; the
    /// fleet recognizes them by crash epoch and must never pass them back
    /// to [`Host::complete`]. Returns `(in-flight instances lost, warm
    /// idle instances lost)`.
    pub fn crash(&mut self, now_ms: f64) -> (usize, usize) {
        self.available = false;
        let mut lost_warm = 0;
        for gens in &mut self.pools {
            for fp in &mut gens.gens {
                lost_warm += fp.pool.retire_idle(now_ms);
            }
        }
        let lost_in_flight = self.in_flight();
        for gens in &mut self.pools {
            gens.first += gens.gens.len();
            for dead in gens.gens.drain(..) {
                self.pruned_provisioned += dead.pool.provisioned();
                self.pruned_evictions += dead.pool.evictions();
                self.pruned_expirations += dead.pool.expirations();
                self.pruned_wasted_mb_ms += dead.pool.wasted_idle_ms() * dead.mem_mb;
            }
        }
        self.committed_mb = 0;
        self.idle_mb = 0;
        self.next_deadline_ms = f64::INFINITY;
        (lost_in_flight, lost_warm)
    }

    /// Brings a crashed host back up with completely cold pools.
    pub fn rejoin(&mut self) {
        self.available = true;
    }

    /// The host's identifier (its index in the fleet).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The host's memory capacity, MB.
    pub fn capacity_mb(&self) -> f64 {
        self.capacity_mb
    }

    /// Ensures an *active* pool for `fn_id` at `mem_mb` exists, retiring a
    /// stale-size active pool if needed. Returns the active generation's
    /// absolute id and how many idle instances a retirement evicted.
    fn ensure_pool(
        &mut self,
        fn_id: usize,
        mem_mb: f64,
        default_ttl_ms: f64,
        now_ms: f64,
    ) -> (usize, usize) {
        if self.pools.len() <= fn_id {
            self.pools.resize_with(fn_id + 1, FnGens::default);
        }
        let drained = match self.pools[fn_id].active_mut() {
            Some(active) if active.mem_mb == mem_mb => 0,
            // Defensive path: a placement at a size the host was never
            // explicitly resized to — run the same transition a resize
            // directive would.
            Some(_) => self.retire_and_replace(fn_id, mem_mb, default_ttl_ms, now_ms),
            None => {
                self.pools[fn_id]
                    .gens
                    .push_back(FnPool::new(mem_mb, default_ttl_ms));
                0
            }
        };
        let gens = &self.pools[fn_id];
        (gens.first + gens.gens.len() - 1, drained)
    }

    /// The generation transition shared by [`Host::resize`] and the
    /// defensive arm of `ensure_pool`: retire the active pool's idle
    /// instances, open a fresh pool at `mem_mb`, and prune whatever is
    /// fully drained. Returns the number of idle instances drained.
    fn retire_and_replace(
        &mut self,
        fn_id: usize,
        mem_mb: f64,
        default_ttl_ms: f64,
        now_ms: f64,
    ) -> usize {
        let gens = &mut self.pools[fn_id];
        let active = gens
            .active_mut()
            // lint: allow(panic002) reason="resize only calls this after matching on an active pool"
            .expect("transition requires an active pool");
        let expired_mb = active.reap_mb(now_ms);
        let drained = active.pool.retire_idle(now_ms);
        let freed_mb = expired_mb + drained as u64 * active.mb;
        self.committed_mb -= freed_mb;
        self.idle_mb -= freed_mb;
        self.resize_drains += drained;
        gens.gens.push_back(FnPool::new(mem_mb, default_ttl_ms));
        self.prune_drained(fn_id);
        drained
    }

    /// Applies a memory-size transition for `fn_id`: the active pool (if
    /// any, and only if its size differs) is retired — idle instances are
    /// evicted now, in-flight ones drain on completion — and a fresh pool
    /// at `new_mem_mb` becomes active. Returns the number of idle
    /// instances drained.
    ///
    /// # Panics
    ///
    /// Panics if `new_mem_mb` is not a whole number of MB.
    pub fn resize(&mut self, fn_id: usize, new_mem_mb: f64, default_ttl_ms: f64, now_ms: f64) -> usize {
        let Some(gens) = self.pools.get_mut(fn_id) else {
            return 0; // never placed here: nothing to drain
        };
        match gens.active_mut() {
            Some(active) if active.mem_mb != new_mem_mb => {
                self.retire_and_replace(fn_id, new_mem_mb, default_ttl_ms, now_ms)
            }
            _ => 0,
        }
    }

    /// Drops retired generations (oldest first) once they hold no in-flight
    /// instances, folding their counters into the host totals — repeated
    /// resizes therefore keep the per-dispatch scans O(live generations),
    /// not O(resizes ever applied). The active generation is never pruned.
    /// A retired generation holds no idle instances (its idle ones were
    /// evicted at retirement, its busy ones are reclaimed on release), so
    /// pruning it leaves the memory totals alone.
    fn prune_drained(&mut self, fn_id: usize) {
        let gens = &mut self.pools[fn_id];
        while gens.gens.len() > 1 {
            if gens.gens.front().is_some_and(|f| f.pool.in_flight() > 0) {
                break;
            }
            let Some(dead) = gens.gens.pop_front() else {
                break;
            };
            gens.first += 1;
            self.pruned_provisioned += dead.pool.provisioned();
            self.pruned_evictions += dead.pool.evictions();
            self.pruned_expirations += dead.pool.expirations();
            self.pruned_wasted_mb_ms += dead.pool.wasted_idle_ms() * dead.mem_mb;
        }
    }

    /// The number of retained pool generations for `fn_id` — the active
    /// one plus retired generations still draining in-flight work.
    pub fn generations(&self, fn_id: usize) -> usize {
        self.pools.get(fn_id).map_or(0, |g| g.gens.len())
    }

    /// Reaps every pool on the host at `now_ms`, skipping the pools (or,
    /// through the host-wide bound, the whole host) with nothing due.
    fn reap_all(&mut self, now_ms: f64) {
        if now_ms < self.next_deadline_ms {
            return;
        }
        let mut next_deadline = f64::INFINITY;
        for fp in self.pools.iter_mut().flat_map(|g| g.gens.iter_mut()) {
            let expired_mb = fp.reap_mb(now_ms);
            self.committed_mb -= expired_mb;
            self.idle_mb -= expired_mb;
            next_deadline = next_deadline.min(fp.pool.next_deadline_ms());
        }
        self.next_deadline_ms = next_deadline;
    }

    /// Memory committed to live (warm or busy) instances at `now_ms`, MB.
    /// Draining generations still commit for their in-flight instances.
    pub fn committed_mb(&mut self, now_ms: f64) -> f64 {
        self.reap_all(now_ms);
        self.committed_mb as f64
    }

    /// Uncommitted memory at `now_ms`, MB.
    pub fn free_mb(&mut self, now_ms: f64) -> f64 {
        self.capacity_mb - self.committed_mb(now_ms)
    }

    /// Fraction of capacity committed at `now_ms`, in `[0, 1]`.
    pub fn load(&mut self, now_ms: f64) -> f64 {
        self.committed_mb(now_ms) / self.capacity_mb
    }

    /// Warm instances of `fn_id` available for reuse at `now_ms` — active
    /// generation only; retired generations never serve requests.
    pub fn warm_idle(&mut self, fn_id: usize, now_ms: f64) -> usize {
        if !self.available {
            return 0;
        }
        let Some(fp) = self.pools.get_mut(fn_id).and_then(FnGens::active_mut) else {
            return 0;
        };
        let expired_mb = fp.reap_mb(now_ms);
        let idle = fp.pool.warm_idle_at(now_ms);
        self.committed_mb -= expired_mb;
        self.idle_mb -= expired_mb;
        idle
    }

    /// Memory reclaimable by evicting idle instances (any function), MB.
    fn evictable_idle_mb(&mut self, now_ms: f64) -> f64 {
        self.reap_all(now_ms);
        self.idle_mb as f64
    }

    /// Whether a request for `fn_id` at `mem_mb` could start on this host
    /// at `now_ms` — warm reuse, a free-memory placement, or a placement
    /// after evicting idle instances.
    pub fn feasible(&mut self, fn_id: usize, mem_mb: f64, now_ms: f64) -> bool {
        if !self.available {
            return false;
        }
        if self.active_matches(fn_id, mem_mb) && self.warm_idle(fn_id, now_ms) > 0 {
            return true;
        }
        mem_mb <= self.capacity_mb
            && self.free_mb(now_ms) + self.evictable_idle_mb(now_ms) + 1e-9 >= mem_mb
    }

    fn active_matches(&self, fn_id: usize, mem_mb: f64) -> bool {
        self.pools
            .get(fn_id)
            .and_then(|g| g.gens.back())
            .is_some_and(|fp| fp.mem_mb == mem_mb)
    }

    /// Evicts the least-recently released idle instance across all pools,
    /// ties to the lowest (function, generation). Returns `false` when
    /// nothing is idle. Scans every pool's front, which is fine: evictions
    /// are rare next to dispatches.
    fn evict_globally_lru(&mut self, now_ms: f64) -> bool {
        self.reap_all(now_ms);
        let victim = self
            .pools
            .iter_mut()
            .flat_map(|g| g.gens.iter_mut())
            .filter_map(|fp| Some((fp.pool.oldest_idle_release_ms(now_ms)?, fp)))
            .min_by(|(a, _), (b, _)| a.total_cmp(b))
            .map(|(_, fp)| fp);
        let Some(fp) = victim else {
            return false;
        };
        let mb = fp.mb;
        let evicted = fp.pool.evict_lru_idle(now_ms);
        self.committed_mb -= mb;
        self.idle_mb -= mb;
        evicted
    }

    /// Starts an invocation of `fn_id` on this host: reuses a warm instance
    /// or places a cold one (evicting idle instances if memory is tight).
    /// Returns the placement, whether the start is cold, and how many idle
    /// instances the host evicted for it (including a stale-size
    /// generation's retirement); `None` when the host cannot serve the
    /// request.
    ///
    /// # Panics
    ///
    /// Panics if `mem_mb` is not a whole number of MB.
    pub fn try_begin(
        &mut self,
        fn_id: usize,
        mem_mb: f64,
        default_ttl_ms: f64,
        now_ms: f64,
    ) -> Option<(Placement, bool, usize)> {
        if !self.available {
            return None;
        }
        let (generation, mut evicted) = self.ensure_pool(fn_id, mem_mb, default_ttl_ms, now_ms);
        if self.warm_idle(fn_id, now_ms) == 0 {
            if mem_mb > self.capacity_mb {
                return None;
            }
            while self.free_mb(now_ms) + 1e-9 < mem_mb {
                if !self.evict_globally_lru(now_ms) {
                    return None;
                }
                evicted += 1;
            }
        }
        let fp = self.pools[fn_id]
            .get_mut(generation)
            // lint: allow(panic002) reason="ensure_pool above just returned this generation as active"
            .expect("active generation exists");
        let (instance, cold) = fp.pool.begin(now_ms);
        if cold {
            self.committed_mb += fp.mb;
        } else {
            self.idle_mb -= fp.mb;
        }
        let placement = Placement {
            generation,
            instance,
        };
        Some((placement, cold, evicted))
    }

    /// Completes an invocation at `finish_ms`: releases the instance with
    /// the keep-alive window `ttl_ms` and accounts `busy_ms` (init +
    /// execution + monitoring overhead) of busy memory-time at the size the
    /// invocation actually ran at. Instances of retired (resized-away)
    /// generations are reclaimed immediately instead of going warm.
    pub fn complete(
        &mut self,
        fn_id: usize,
        placement: Placement,
        finish_ms: f64,
        ttl_ms: f64,
        busy_ms: f64,
    ) {
        let gens = &mut self.pools[fn_id];
        let retired = placement.generation + 1 != gens.first + gens.gens.len();
        let fp = gens
            .get_mut(placement.generation)
            // lint: allow(panic002) reason="completions carry a placement minted at dispatch, so the generation exists on this host"
            .expect("completion for a generation never created on this host");
        let ttl = if retired { 0.0 } else { ttl_ms };
        fp.pool.complete_with_ttl(placement.instance, finish_ms, ttl);
        self.busy_mb_ms += busy_ms * fp.mem_mb;
        // A zero window reclaims the instance on release.
        if ttl == 0.0 {
            self.committed_mb -= fp.mb;
        } else {
            self.idle_mb += fp.mb;
            self.next_deadline_ms = self.next_deadline_ms.min(fp.pool.next_deadline_ms());
        }
        if retired {
            self.resize_drains += 1;
            self.prune_drained(fn_id);
        }
    }

    /// `(committed, idle)` MB as of `now_ms`, twice: the running totals,
    /// then the same two re-summed over every pool from scratch. They
    /// must agree.
    pub(crate) fn audit_mb(&mut self, now_ms: f64) -> ((u64, u64), (u64, u64)) {
        self.reap_all(now_ms);
        let (mut committed, mut idle) = (0, 0);
        for fp in self.pools.iter_mut().flat_map(|g| g.gens.iter_mut()) {
            committed += fp.pool.live_at(now_ms) as u64 * fp.mb;
            idle += fp.pool.warm_idle_at(now_ms) as u64 * fp.mb;
        }
        ((self.committed_mb, self.idle_mb), (committed, idle))
    }

    /// Invocations currently executing on this host.
    pub fn in_flight(&self) -> usize {
        self.pools
            .iter()
            .flat_map(|g| &g.gens)
            .map(|fp| fp.pool.in_flight())
            .sum()
    }

    /// Instances ever provisioned on this host.
    pub fn provisioned(&self) -> usize {
        self.pruned_provisioned
            + self
                .pools
                .iter()
                .flat_map(|g| &g.gens)
                .map(|fp| fp.pool.provisioned())
                .sum::<usize>()
    }

    /// Instances evicted for memory pressure or retired by a resize.
    pub fn evictions(&self) -> usize {
        self.pruned_evictions
            + self
                .pools
                .iter()
                .flat_map(|g| &g.gens)
                .map(|fp| fp.pool.evictions())
                .sum::<usize>()
    }

    /// Instances reclaimed by keep-alive expiry (including the immediate
    /// reclaim of draining instances on completion).
    pub fn expirations(&self) -> usize {
        self.pruned_expirations
            + self
                .pools
                .iter()
                .flat_map(|g| &g.gens)
                .map(|fp| fp.pool.expirations())
                .sum::<usize>()
    }

    /// Instances drained because of a memory-size transition: idle ones
    /// evicted at resize time plus in-flight ones reclaimed on completion.
    pub fn resize_drains(&self) -> usize {
        self.resize_drains
    }

    /// Busy memory-time accumulated so far, MB·ms.
    pub fn busy_mb_ms(&self) -> f64 {
        self.busy_mb_ms
    }

    /// Warm-but-idle memory-time accrued so far, MB·ms.
    pub fn wasted_mb_ms(&self) -> f64 {
        self.pruned_wasted_mb_ms
            + self
                .pools
                .iter()
                .flat_map(|g| &g.gens)
                .map(|fp| fp.pool.wasted_idle_ms() * fp.mem_mb)
                .sum::<f64>()
    }

    /// Reclaims all idle instances at the end of a run, accruing trailing
    /// idle memory-time.
    pub fn finalize(&mut self, end_ms: f64) {
        for fp in self.pools.iter_mut().flat_map(|g| g.gens.iter_mut()) {
            let freed_mb = fp.pool.finalize(end_ms) as u64 * fp.mb;
            self.committed_mb -= freed_mb;
            self.idle_mb -= freed_mb;
        }
        self.next_deadline_ms = f64::INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: f64 = 60_000.0;

    #[test]
    fn placement_commits_memory() {
        let mut h = Host::new(0, 1024.0);
        let (_, cold, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        assert!(cold);
        assert_eq!(h.committed_mb(0.0), 512.0);
        assert_eq!(h.free_mb(0.0), 512.0);
        assert_eq!(h.in_flight(), 1);
    }

    #[test]
    fn capacity_refuses_when_all_busy() {
        let mut h = Host::new(0, 1024.0);
        let _ = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let _ = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        assert!(h.try_begin(0, 512.0, TTL, 1.0).is_none());
        assert!(h.try_begin(1, 256.0, TTL, 1.0).is_none());
    }

    #[test]
    fn warm_reuse_avoids_cold_start() {
        let mut h = Host::new(0, 1024.0);
        let (p, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, p, 50.0, TTL, 50.0);
        let (_, cold, _) = h.try_begin(0, 512.0, TTL, 100.0).unwrap();
        assert!(!cold);
        assert_eq!(h.provisioned(), 1);
    }

    #[test]
    fn evicts_idle_instance_of_other_function_to_fit() {
        let mut h = Host::new(0, 1024.0);
        // Function 0 fills the host, then goes idle.
        let (a, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let (b, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, a, 40.0, TTL, 40.0);
        h.complete(0, b, 60.0, TTL, 60.0);
        // Function 1 needs 768 MB: both idle instances must go.
        let (_, cold, evicted) = h.try_begin(1, 768.0, TTL, 100.0).unwrap();
        assert!(cold);
        assert_eq!(evicted, 2, "the placement reports its evictions");
        assert_eq!(h.evictions(), 2);
        assert_eq!(h.committed_mb(100.0), 768.0);
        // Wasted time: (100-40) + (100-60) ms at 512 MB each.
        assert_eq!(h.wasted_mb_ms(), (60.0 + 40.0) * 512.0);
    }

    #[test]
    fn a_placement_at_a_new_size_reports_the_retired_warmth_as_evicted() {
        let mut h = Host::new(0, 4096.0);
        let (p, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, p, 10.0, TTL, 10.0);
        // No resize directive reached this host: placing at 1024 MB retires
        // the 512 MB generation, evicting its idle instance.
        let (_, cold, evicted) = h.try_begin(0, 1024.0, TTL, 20.0).unwrap();
        assert!(cold);
        assert_eq!(evicted, 1);
        assert_eq!(h.evictions(), 1);
        assert_eq!(h.committed_mb(20.0), 1024.0);
    }

    #[test]
    fn feasibility_tracks_memory_and_warmth() {
        let mut h = Host::new(0, 1024.0);
        assert!(!h.feasible(0, 2048.0, 0.0), "larger than the host");
        assert!(h.feasible(0, 1024.0, 0.0));
        let (p, _, _) = h.try_begin(0, 1024.0, TTL, 0.0).unwrap();
        assert!(!h.feasible(1, 512.0, 1.0), "fully busy");
        h.complete(0, p, 10.0, TTL, 10.0);
        assert!(h.feasible(0, 1024.0, 20.0), "warm instance");
        assert!(h.feasible(1, 512.0, 20.0), "evictable idle instance");
    }

    #[test]
    fn utilization_accounting() {
        let mut h = Host::new(0, 1024.0);
        let (p, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, p, 200.0, TTL, 200.0);
        assert_eq!(h.busy_mb_ms(), 200.0 * 512.0);
        h.finalize(1_200.0);
        assert_eq!(h.wasted_mb_ms(), 1_000.0 * 512.0);
        assert_eq!(h.committed_mb(1_200.0), 0.0);
    }

    #[test]
    fn resize_evicts_idle_and_drains_in_flight_at_old_size() {
        let mut h = Host::new(0, 4096.0);
        // Two instances at 512 MB: one goes idle, one stays in flight.
        let (idle, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let (busy, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, idle, 50.0, TTL, 50.0);

        assert_eq!(h.resize(0, 1024.0, TTL, 100.0), 1, "idle instance drained");
        // The idle 512 MB instance is gone; the busy one still commits.
        assert_eq!(h.committed_mb(100.0), 512.0);
        assert_eq!(h.warm_idle(0, 100.0), 0, "old-size warmth is not reusable");

        // New requests cold-start at the new size.
        let (fresh, cold, _) = h.try_begin(0, 1024.0, TTL, 110.0).unwrap();
        assert!(cold);
        assert_eq!(h.committed_mb(110.0), 512.0 + 1024.0);

        // The draining in-flight instance completes at the old size: busy
        // time is accounted at 512 MB and it does NOT go warm.
        let before = h.busy_mb_ms();
        h.complete(0, busy, 200.0, TTL, 200.0);
        assert_eq!(h.busy_mb_ms() - before, 200.0 * 512.0);
        assert_eq!(h.committed_mb(200.0), 1024.0);
        assert_eq!(h.resize_drains(), 2, "one idle + one in-flight drain");

        // The new-size instance keeps normal keep-alive semantics.
        h.complete(0, fresh, 300.0, TTL, 190.0);
        assert_eq!(h.warm_idle(0, 310.0), 1);
        let (_, cold2, _) = h.try_begin(0, 1024.0, TTL, 320.0).unwrap();
        assert!(!cold2, "warm reuse at the new size");
    }

    #[test]
    fn resize_to_same_size_or_unknown_function_is_a_no_op() {
        let mut h = Host::new(0, 1024.0);
        assert_eq!(h.resize(5, 512.0, TTL, 0.0), 0, "function never placed");
        let (p, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, p, 10.0, TTL, 10.0);
        assert_eq!(h.resize(0, 512.0, TTL, 20.0), 0, "same size keeps warmth");
        let (_, cold, _) = h.try_begin(0, 512.0, TTL, 30.0).unwrap();
        assert!(!cold);
    }

    #[test]
    fn drained_generations_are_pruned_with_counters_preserved() {
        let mut h = Host::new(0, 8192.0);
        let (a, _, _) = h.try_begin(0, 256.0, TTL, 0.0).unwrap();
        h.complete(0, a, 50.0, TTL, 50.0);
        // The resize drains the idle instance; the old generation is empty
        // and is pruned immediately, counters folded into host totals.
        assert_eq!(h.resize(0, 512.0, TTL, 100.0), 1);
        assert_eq!(h.generations(0), 1);
        assert_eq!(h.provisioned(), 1);
        assert_eq!(h.evictions(), 1);
        assert_eq!(h.wasted_mb_ms(), 50.0 * 256.0);

        // An oscillating right-sizer never accumulates generations while
        // nothing is in flight.
        for (i, mb) in [256.0, 512.0].iter().cycle().take(10).enumerate() {
            h.resize(0, *mb, TTL, 200.0 + i as f64);
        }
        assert_eq!(h.generations(0), 1);

        // In-flight work delays pruning exactly until its completion.
        let (b, _, _) = h.try_begin(0, 512.0, TTL, 300.0).unwrap();
        h.resize(0, 1024.0, TTL, 310.0);
        assert_eq!(h.generations(0), 2, "draining generation retained");
        h.complete(0, b, 330.0, TTL, 30.0);
        assert_eq!(h.generations(0), 1, "drained generation pruned");
        assert_eq!(h.provisioned(), 2);
        assert_eq!(h.busy_mb_ms(), 50.0 * 256.0 + 30.0 * 512.0);
        assert_eq!(h.resize_drains(), 2, "one idle drain + one in-flight drain");
    }

    #[test]
    fn repeated_resizes_stack_generations_consistently() {
        let mut h = Host::new(0, 8192.0);
        let sizes = [256.0, 1024.0, 128.0, 2048.0];
        let mut in_flight = Vec::new();
        for (i, &mb) in sizes.iter().enumerate() {
            let now = i as f64 * 100.0;
            h.resize(0, mb, TTL, now);
            let (p, cold, _) = h.try_begin(0, mb, TTL, now + 10.0).unwrap();
            assert!(cold, "every generation cold-starts");
            in_flight.push((p, mb));
        }
        // All four generations still commit their in-flight memory.
        assert_eq!(h.committed_mb(400.0), sizes.iter().sum::<f64>());
        assert_eq!(h.in_flight(), 4);
        // Completions route to their own generation and account correctly.
        let mut expected_busy = 0.0;
        for (p, mb) in in_flight {
            h.complete(0, p, 500.0, TTL, 100.0);
            expected_busy += 100.0 * mb;
        }
        assert_eq!(h.busy_mb_ms(), expected_busy);
        // Only the newest generation may hold warmth.
        assert_eq!(h.warm_idle(0, 510.0), 1);
        assert_eq!(h.committed_mb(510.0), 2048.0);
    }

    #[test]
    fn crash_loses_warmth_and_in_flight_and_refuses_placement() {
        let mut h = Host::new(0, 2048.0);
        let (idle, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let (_busy, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let (_other, _, _) = h.try_begin(1, 256.0, TTL, 0.0).unwrap();
        h.complete(0, idle, 40.0, TTL, 40.0);

        assert!(h.is_available());
        let (lost_in_flight, lost_warm) = h.crash(100.0);
        assert_eq!(lost_in_flight, 2, "both busy instances are torn down");
        assert_eq!(lost_warm, 1, "the idle instance is lost too");

        assert!(!h.is_available());
        assert_eq!(h.in_flight(), 0);
        assert_eq!(h.committed_mb(100.0), 0.0, "a down host commits nothing");
        assert_eq!(h.warm_idle(0, 100.0), 0);
        assert!(!h.feasible(0, 512.0, 100.0));
        assert!(h.try_begin(0, 512.0, TTL, 100.0).is_none());
    }

    #[test]
    fn crash_and_rejoin_keep_counters_conserved() {
        let mut h = Host::new(0, 2048.0);
        let (a, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, a, 50.0, TTL, 50.0);
        let (_b, _, _) = h.try_begin(1, 256.0, TTL, 60.0).unwrap();
        let busy_before = h.busy_mb_ms();

        let (lost_in_flight, lost_warm) = h.crash(100.0);
        assert_eq!((lost_in_flight, lost_warm), (1, 1));
        // Lifetime counters fold into the host totals instead of vanishing.
        assert_eq!(h.provisioned(), 2);
        assert_eq!(h.evictions(), 1, "crashed idle counts as an eviction");
        assert_eq!(h.wasted_mb_ms(), (100.0 - 50.0) * 512.0);
        assert_eq!(
            h.busy_mb_ms(),
            busy_before,
            "partial busy time of crashed in-flight work is dropped"
        );

        // Rejoin serves cold, with fresh generations.
        h.rejoin();
        assert!(h.is_available());
        let (_, cold, _) = h.try_begin(0, 512.0, TTL, 200.0).unwrap();
        assert!(cold, "no warmth survives a crash");
        assert_eq!(h.provisioned(), 3);
        assert_eq!(h.in_flight(), 1);
    }

    #[test]
    #[should_panic(expected = "never created on this host")]
    fn completing_a_crashed_placement_panics() {
        // The fleet must recognize crashed placements by epoch and never
        // release them back into a host — doing so is a logic error.
        let mut h = Host::new(0, 1024.0);
        let (p, _, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let _ = h.crash(10.0);
        h.rejoin();
        let _ = h.try_begin(0, 512.0, TTL, 20.0).unwrap();
        h.complete(0, p, 30.0, TTL, 30.0);
    }
}
