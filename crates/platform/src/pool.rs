//! The instance model: warm pools of function instances.
//!
//! On Lambda, every function owns a fleet of sandboxes ("instances"): an
//! invocation either reuses a warm instance or pays a cold start, and idle
//! instances are reclaimed after a keep-alive window. [`WarmPool`] is that
//! model, shared by the single-function measurement harness
//! (`sizeless_workload::run_experiment`) and the cluster-level fleet
//! simulator (`sizeless_fleet`), so both layers agree on cold-start
//! semantics.
//!
//! Beyond the seed implementation this pool supports:
//!
//! * **per-instance keep-alive TTLs** ([`WarmPool::complete_with_ttl`]) so
//!   pluggable keep-alive policies can shrink or stretch the window per
//!   invocation;
//! * **wasted-time accounting**: every millisecond an instance sits warm
//!   but idle is accrued into [`WarmPool::wasted_idle_ms`], the basis of
//!   the fleet's wasted MB·ms metric;
//! * **eviction** ([`WarmPool::evict_lru_idle`]) so a host can reclaim
//!   memory from idle instances to place a new one. The pool itself has no
//!   size bound: the fleet's host memory check is the only one.
//!
//! # Layout and cost
//!
//! Instances live in a slab. A reclaimed instance's slot goes on a free
//! list and the next cold start reuses it under a bumped generation, so a
//! stale [`InstanceId`] never aliases the new occupant and storage is
//! bounded by the peak number of live instances, not by how many were ever
//! provisioned. Idle instances are threaded through an intrusive list in
//! (release time, provisioning order): warm reuse looks from the back,
//! LRU eviction takes the front, and a release at the current time (the
//! fleet's only kind) links in at the back in O(1).
//!
//! Keep-alive windows are per release — an adaptive policy may give a
//! later release a shorter window — so the idle list is not in deadline
//! order. The pool instead keeps a lower bound on the earliest deadline:
//! a reap before it is one comparison, and a reap at or after it walks the
//! idle instances once and tightens the bound.
//!
//! Every operation is observably the same as a pool that keeps every slot
//! forever and re-scans them all (the reference model in this module's
//! tests): reuse takes the latest release not after `now`, eviction the
//! earliest release, both breaking ties toward the earliest provisioned;
//! and when one call reclaims several instances it accrues their idle time
//! in provisioning order, so [`WarmPool::wasted_idle_ms`] is the same float
//! sum bit for bit.

/// Link value meaning "no slot".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Running an invocation.
    Busy,
    /// Warm and waiting for reuse; linked into the idle list.
    Idle,
    /// Reclaimed; linked into the free list.
    Free,
}

/// One slab slot. A reclaimed slot is reused by the next cold start, so an
/// [`InstanceId`] names a slot *and* the generation that occupies it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    state: State,
    /// Bumped whenever the slot is freed.
    generation: u32,
    /// Provisioning order of the occupant: the tie-break of reuse and
    /// eviction, and the order batch reclaims accrue wasted time in.
    seq: usize,
    /// When the occupant last finished an invocation.
    release_ms: f64,
    /// Keep-alive window of the occupant's current idle spell.
    ttl_ms: f64,
    /// Idle-list neighbours; `next` also links the free list.
    prev: u32,
    next: u32,
}

/// A per-function pool of warm instances, deciding which invocations pay a
/// cold start. Instances are reclaimed after their keep-alive TTL (the
/// cold-start model's idle TTL by default).
#[derive(Debug, Clone)]
pub struct WarmPool {
    slots: Vec<Slot>,
    /// Head of the free list.
    free: u32,
    /// Front (earliest release) and back of the idle list.
    lru: u32,
    mru: u32,
    idle_ttl_ms: f64,
    idle: usize,
    busy: usize,
    provisioned: usize,
    evictions: usize,
    expirations: usize,
    wasted_idle_ms: f64,
    /// See [`WarmPool::next_deadline_ms`].
    next_deadline_ms: f64,
    /// Slots one call reclaims together; kept to reuse its allocation.
    batch: Vec<u32>,
}

/// Identifies an acquired instance until [`WarmPool::complete`] is called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceId {
    slot: u32,
    generation: u32,
}

impl WarmPool {
    /// Creates a pool with the given idle TTL (ms).
    pub fn new(idle_ttl_ms: f64) -> Self {
        WarmPool {
            slots: Vec::new(),
            free: NIL,
            lru: NIL,
            mru: NIL,
            idle_ttl_ms,
            idle: 0,
            busy: 0,
            provisioned: 0,
            evictions: 0,
            expirations: 0,
            wasted_idle_ms: 0.0,
            next_deadline_ms: f64::INFINITY,
            batch: Vec::new(),
        }
    }

    /// The default keep-alive window of this pool, ms.
    pub fn idle_ttl_ms(&self) -> f64 {
        self.idle_ttl_ms
    }

    /// A lower bound on when the next idle instance's keep-alive window
    /// ends: [`WarmPool::reap`] reclaims nothing before it. Reuse and
    /// eviction can leave it early until a reap walks the idle list and
    /// tightens it; `f64::INFINITY` means nothing can expire.
    pub fn next_deadline_ms(&self) -> f64 {
        self.next_deadline_ms
    }

    /// Reclaims instances whose keep-alive window elapsed before `now_ms`
    /// (`now_ms - release > ttl`), accruing each one's window as wasted
    /// time, and returns how many it reclaimed. One comparison while
    /// `now_ms` is before [`WarmPool::next_deadline_ms`], otherwise one
    /// walk of the idle instances.
    pub fn reap(&mut self, now_ms: f64) -> usize {
        if now_ms < self.next_deadline_ms {
            return 0;
        }
        let mut next_deadline = f64::INFINITY;
        let mut i = self.lru;
        while i != NIL {
            let s = &self.slots[i as usize];
            if now_ms - s.release_ms > s.ttl_ms {
                self.batch.push(i);
            } else {
                // `now - release > ttl` implies `now >= release + ttl` even
                // after rounding, so the rounded sum is a sound bound.
                next_deadline = next_deadline.min(s.release_ms + s.ttl_ms);
            }
            i = s.next;
        }
        self.next_deadline_ms = next_deadline;
        let reaped = self.reclaim_batch(|s| s.ttl_ms);
        self.expirations += reaped;
        reaped
    }

    /// Acquires an instance for an invocation arriving at `at_ms`: the
    /// most recently released warm instance (LIFO, like Lambda), or a new
    /// one. Returns the instance and whether the invocation is a cold
    /// start.
    pub fn begin(&mut self, at_ms: f64) -> (InstanceId, bool) {
        self.reap(at_ms);
        self.busy += 1;
        if let Some(i) = self.reusable(at_ms) {
            self.wasted_idle_ms += at_ms - self.slots[i as usize].release_ms;
            self.unlink_idle(i);
            self.slots[i as usize].state = State::Busy;
            return (self.id(i), false);
        }
        let seq = self.provisioned;
        self.provisioned += 1;
        let i = match self.free {
            NIL => {
                assert!(
                    self.slots.len() < NIL as usize,
                    "slab index space exhausted"
                );
                self.slots.push(Slot {
                    state: State::Busy,
                    generation: 0,
                    seq,
                    release_ms: at_ms,
                    ttl_ms: self.idle_ttl_ms,
                    prev: NIL,
                    next: NIL,
                });
                (self.slots.len() - 1) as u32
            }
            i => {
                let s = &mut self.slots[i as usize];
                self.free = s.next;
                s.state = State::Busy;
                s.seq = seq;
                i
            }
        };
        (self.id(i), true)
    }

    /// Marks the instance free again at `finish_ms`, keeping the pool's
    /// default keep-alive window.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not currently busy.
    pub fn complete(&mut self, id: InstanceId, finish_ms: f64) {
        let ttl = self.idle_ttl_ms;
        self.complete_with_ttl(id, finish_ms, ttl);
    }

    /// Marks the instance free again at `finish_ms` with a per-instance
    /// keep-alive window of `ttl_ms` (a keep-alive policy's decision for
    /// this release). A zero TTL reclaims the instance immediately.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not currently busy or `ttl_ms` is negative.
    pub fn complete_with_ttl(&mut self, id: InstanceId, finish_ms: f64, ttl_ms: f64) {
        assert!(
            ttl_ms >= 0.0 && !ttl_ms.is_nan(),
            "TTL must be non-negative"
        );
        let slot = &mut self.slots[id.slot as usize];
        assert!(
            slot.state == State::Busy && slot.generation == id.generation,
            "instance completed twice"
        );
        slot.release_ms = finish_ms;
        slot.ttl_ms = ttl_ms;
        self.busy -= 1;
        if ttl_ms == 0.0 {
            self.expirations += 1;
            self.free_slot(id.slot);
        } else {
            self.link_idle(id.slot);
        }
    }

    /// Evicts the least-recently released idle instance (to reclaim its
    /// memory for another pool on the same host), accruing its idle span as
    /// wasted time. Returns `false` when no instance is idle.
    pub fn evict_lru_idle(&mut self, now_ms: f64) -> bool {
        self.reap(now_ms);
        let i = self.lru;
        if i == NIL {
            return false;
        }
        self.wasted_idle_ms += now_ms - self.slots[i as usize].release_ms;
        self.evictions += 1;
        self.unlink_idle(i);
        self.free_slot(i);
        true
    }

    /// Evicts **every** idle instance at once, accruing their idle spans as
    /// wasted time, and returns how many were reclaimed. In-flight
    /// instances are left to finish (the caller stops reusing the pool).
    ///
    /// This is the memory-size-transition primitive: when a function is
    /// redeployed at a new size, warm instances of the old size cannot
    /// serve it — idle ones are reclaimed immediately and busy ones drain.
    pub fn retire_idle(&mut self, now_ms: f64) -> usize {
        self.reap(now_ms);
        let retired = self.drain_idle(|s| now_ms - s.release_ms);
        self.evictions += retired;
        retired
    }

    /// The release time of the least-recently released idle instance, if
    /// any — lets a host pick the globally best eviction victim.
    pub fn oldest_idle_release_ms(&mut self, now_ms: f64) -> Option<f64> {
        self.reap(now_ms);
        (self.lru != NIL).then(|| self.slots[self.lru as usize].release_ms)
    }

    /// Reclaims every idle instance at the end of a run, accruing trailing
    /// idle time (clamped to each instance's TTL) as wasted time, and
    /// returns how many it reclaimed. In-flight instances are left
    /// untouched.
    pub fn finalize(&mut self, end_ms: f64) -> usize {
        let reclaimed = self.drain_idle(|s| (end_ms - s.release_ms).clamp(0.0, s.ttl_ms));
        self.expirations += reclaimed;
        reclaimed
    }

    /// Number of instances ever provisioned.
    pub fn provisioned(&self) -> usize {
        self.provisioned
    }

    /// Number of live (warm or busy) instances as of `now_ms`.
    pub fn live_at(&mut self, now_ms: f64) -> usize {
        self.reap(now_ms);
        self.idle + self.busy
    }

    /// Number of instances currently executing an invocation.
    pub fn in_flight(&self) -> usize {
        self.busy
    }

    /// Number of warm (not busy) instances as of `now_ms`, including any
    /// released after `now_ms`, which [`WarmPool::begin`] cannot reuse yet.
    pub fn warm_idle_at(&mut self, now_ms: f64) -> usize {
        self.reap(now_ms);
        self.idle
    }

    /// Instances evicted to reclaim memory (capacity pressure).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Instances reclaimed because their keep-alive window elapsed.
    pub fn expirations(&self) -> usize {
        self.expirations
    }

    /// Total warm-but-idle instance time accrued so far, ms. Multiplied by
    /// the instance memory size this is the "wasted memory-time" a
    /// keep-alive policy trades against cold starts.
    pub fn wasted_idle_ms(&self) -> f64 {
        self.wasted_idle_ms
    }

    fn id(&self, slot: u32) -> InstanceId {
        InstanceId {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// The idle instance [`WarmPool::begin`] reuses at `at_ms`: the latest
    /// release not after `at_ms`, ties to the earliest provisioned.
    /// Releases after `at_ms` (the harness completes invocations ahead of
    /// time) sit at the back of the list and are skipped.
    fn reusable(&self, at_ms: f64) -> Option<u32> {
        let released_by = |i: u32| self.slots[i as usize].release_ms <= at_ms;
        let mut i = self.mru;
        while i != NIL && !released_by(i) {
            i = self.slots[i as usize].prev;
        }
        if i == NIL {
            return None;
        }
        // Equal releases sit together; `==` also pairs 0.0 with -0.0,
        // which the list's total order keeps apart.
        let latest = self.slots[i as usize].release_ms;
        let mut best = i;
        let mut j = self.slots[i as usize].prev;
        while j != NIL && self.slots[j as usize].release_ms == latest {
            if self.slots[j as usize].seq < self.slots[best as usize].seq {
                best = j;
            }
            j = self.slots[j as usize].prev;
        }
        Some(best)
    }

    /// Links a just-released slot into the idle list at its (release,
    /// provisioning) position, walking from the back.
    fn link_idle(&mut self, i: u32) {
        let Slot {
            release_ms,
            ttl_ms,
            seq,
            ..
        } = self.slots[i as usize];
        let mut prev = self.mru;
        while prev != NIL {
            let p = &self.slots[prev as usize];
            if p.release_ms
                .total_cmp(&release_ms)
                .then(p.seq.cmp(&seq))
                .is_lt()
            {
                break;
            }
            prev = p.prev;
        }
        let next = match prev {
            NIL => self.lru,
            p => self.slots[p as usize].next,
        };
        match prev {
            NIL => self.lru = i,
            p => self.slots[p as usize].next = i,
        }
        match next {
            NIL => self.mru = i,
            n => self.slots[n as usize].prev = i,
        }
        let s = &mut self.slots[i as usize];
        s.state = State::Idle;
        s.prev = prev;
        s.next = next;
        self.idle += 1;
        self.next_deadline_ms = self.next_deadline_ms.min(release_ms + ttl_ms);
    }

    fn unlink_idle(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.lru = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.mru = prev,
            n => self.slots[n as usize].prev = prev,
        }
        self.idle -= 1;
    }

    fn free_slot(&mut self, i: u32) {
        let s = &mut self.slots[i as usize];
        s.state = State::Free;
        s.generation = s.generation.wrapping_add(1);
        s.next = self.free;
        self.free = i;
    }

    /// Reclaims every idle instance, accruing `idle_ms` of each as wasted
    /// time; returns how many it reclaimed.
    fn drain_idle(&mut self, idle_ms: impl Fn(&Slot) -> f64) -> usize {
        let mut i = self.lru;
        while i != NIL {
            self.batch.push(i);
            i = self.slots[i as usize].next;
        }
        self.next_deadline_ms = f64::INFINITY;
        self.reclaim_batch(idle_ms)
    }

    /// Reclaims the idle slots gathered in `batch` in provisioning order —
    /// the slot order of a pool that never reuses slots, so the float sum
    /// in `wasted_idle_ms` is unchanged — accruing `idle_ms` of each.
    fn reclaim_batch(&mut self, idle_ms: impl Fn(&Slot) -> f64) -> usize {
        let mut batch = std::mem::take(&mut self.batch);
        let slots = &self.slots;
        batch.sort_unstable_by_key(|&i| slots[i as usize].seq);
        for &i in &batch {
            self.wasted_idle_ms += idle_ms(&self.slots[i as usize]);
            self.unlink_idle(i);
            self.free_slot(i);
        }
        let reclaimed = batch.len();
        batch.clear();
        self.batch = batch;
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn warm_pool_reuses_instances() {
        let mut pool = WarmPool::new(10_000.0);
        let (a, cold_a) = pool.begin(0.0);
        assert!(cold_a);
        pool.complete(a, 50.0);
        let (_b, cold_b) = pool.begin(100.0);
        assert!(!cold_b);
        assert_eq!(pool.provisioned(), 1);
    }

    #[test]
    fn warm_pool_scales_out_under_concurrency() {
        let mut pool = WarmPool::new(10_000.0);
        let (a, _) = pool.begin(0.0);
        let (b, cold_b) = pool.begin(1.0); // a still busy
        assert!(cold_b);
        pool.complete(a, 30.0);
        pool.complete(b, 31.0);
        assert_eq!(pool.provisioned(), 2);
    }

    #[test]
    fn warm_pool_expires_idle_instances() {
        let mut pool = WarmPool::new(1_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete(a, 10.0);
        let (_b, cold) = pool.begin(5_000.0); // idle 4990 ms > TTL
        assert!(cold);
        assert_eq!(pool.provisioned(), 2);
        assert_eq!(pool.expirations(), 1);
        // The expired instance wasted exactly its keep-alive window.
        assert_eq!(pool.wasted_idle_ms(), 1_000.0);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let mut pool = WarmPool::new(1_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete(a, 1.0);
        pool.complete(a, 2.0);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn stale_id_does_not_alias_the_reused_slot() {
        let mut pool = WarmPool::new(1_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete_with_ttl(a, 1.0, 0.0);
        // The freed slot is reused by the next cold start...
        let (b, cold) = pool.begin(2.0);
        assert!(cold);
        assert_eq!(pool.slots.len(), 1);
        assert_ne!(a, b);
        // ...but the old id names the previous generation.
        pool.complete(a, 3.0);
    }

    #[test]
    fn expiry_frees_the_slot_for_the_next_cold_start() {
        let mut pool = WarmPool::new(100.0);
        let (a, _) = pool.begin(0.0);
        pool.complete(a, 10.0);
        // TTL elapsed: the instance expires and a fresh one takes its slot.
        let (b, cold) = pool.begin(500.0);
        assert!(cold);
        pool.complete(b, 510.0);
        assert_eq!(pool.expirations(), 1);
        assert_eq!(pool.provisioned(), 2);
        assert_eq!(
            pool.slots.len(),
            1,
            "storage is bounded by peak live instances"
        );
    }

    #[test]
    fn warm_reuse_accrues_idle_time() {
        let mut pool = WarmPool::new(10_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete(a, 100.0);
        let (_b, cold) = pool.begin(350.0);
        assert!(!cold);
        assert_eq!(pool.wasted_idle_ms(), 250.0);
    }

    #[test]
    fn zero_ttl_reclaims_immediately() {
        let mut pool = WarmPool::new(10_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete_with_ttl(a, 50.0, 0.0);
        let (_b, cold) = pool.begin(51.0);
        assert!(cold, "no-keepalive instance must not be reused");
        assert_eq!(pool.wasted_idle_ms(), 0.0);
    }

    #[test]
    fn a_later_release_with_a_shorter_window_expires_first() {
        let mut pool = WarmPool::new(10_000.0);
        let (a, _) = pool.begin(0.0);
        let (b, _) = pool.begin(0.0);
        pool.complete_with_ttl(a, 10.0, 1_000.0);
        pool.complete_with_ttl(b, 20.0, 100.0);
        assert_eq!(pool.next_deadline_ms(), 120.0);
        assert_eq!(pool.warm_idle_at(200.0), 1, "b expired, a did not");
        assert_eq!(pool.wasted_idle_ms(), 100.0);
        assert_eq!(
            pool.next_deadline_ms(),
            1_010.0,
            "the bound tightens on a walk"
        );
        assert_eq!(pool.reap(500.0), 0);
    }

    #[test]
    fn eviction_prefers_lru_and_accounts_waste() {
        let mut pool = WarmPool::new(60_000.0);
        let (a, _) = pool.begin(0.0);
        let (b, _) = pool.begin(1.0);
        pool.complete(a, 100.0);
        pool.complete(b, 300.0);
        assert!(pool.evict_lru_idle(400.0));
        assert_eq!(pool.evictions(), 1);
        // Evicted the instance released at 100 ms → 300 ms idle wasted.
        assert_eq!(pool.wasted_idle_ms(), 300.0);
        // The remaining warm instance is the one released at 300 ms.
        let (_c, cold) = pool.begin(400.0);
        assert!(!cold);
    }

    #[test]
    fn retire_idle_reclaims_all_idle_but_leaves_busy() {
        let mut pool = WarmPool::new(60_000.0);
        let (a, _) = pool.begin(0.0);
        let (b, _) = pool.begin(0.0);
        let (_c, _) = pool.begin(0.0); // stays busy through the retirement
        pool.complete(a, 100.0);
        pool.complete(b, 200.0);
        assert_eq!(pool.retire_idle(300.0), 2);
        assert_eq!(pool.evictions(), 2);
        assert_eq!(pool.in_flight(), 1);
        assert_eq!(pool.live_at(300.0), 1);
        // Wasted: (300-100) + (300-200) ms of idle time.
        assert_eq!(pool.wasted_idle_ms(), 300.0);
        // Nothing idle left: a second retirement is a no-op.
        assert_eq!(pool.retire_idle(301.0), 0);
    }

    #[test]
    fn finalize_accrues_trailing_idle() {
        let mut pool = WarmPool::new(60_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete(a, 100.0);
        assert_eq!(pool.finalize(1_100.0), 1);
        assert_eq!(pool.wasted_idle_ms(), 1_000.0);
        assert_eq!(pool.live_at(1_100.0), 0);
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut pool = WarmPool::new(1_000.0);
        let (a, _) = pool.begin(0.0);
        let (b, _) = pool.begin(0.0);
        assert_eq!(pool.in_flight(), 2);
        pool.complete(a, 10.0);
        assert_eq!(pool.in_flight(), 1);
        assert_eq!(pool.warm_idle_at(20.0), 1);
        assert_eq!(pool.live_at(20.0), 2);
        pool.complete(b, 30.0);
        assert_eq!(pool.live_at(5_000.0), 0);
        assert_eq!(pool.expirations(), 2);
    }

    /// The pool as it was before the slab: every slot ever provisioned is
    /// kept and every query re-scans them all. Kept as the oracle the slab
    /// must match operation for operation.
    mod reference {
        #[derive(Debug, Clone, Copy)]
        struct Slot {
            busy_until_ms: f64,
            last_release_ms: f64,
            ttl_ms: f64,
            dead: bool,
        }

        impl Slot {
            fn is_busy(&self) -> bool {
                self.busy_until_ms == f64::INFINITY
            }

            fn is_idle(&self) -> bool {
                !self.dead && !self.is_busy()
            }
        }

        #[derive(Debug, Clone, Default)]
        pub struct RefPool {
            slots: Vec<Slot>,
            idle_ttl_ms: f64,
            pub live: usize,
            pub busy: usize,
            pub evictions: usize,
            pub expirations: usize,
            pub wasted_idle_ms: f64,
        }

        impl RefPool {
            pub fn new(idle_ttl_ms: f64) -> Self {
                RefPool {
                    idle_ttl_ms,
                    ..RefPool::default()
                }
            }

            pub fn reap(&mut self, now_ms: f64) {
                for slot in &mut self.slots {
                    if slot.is_idle() && now_ms - slot.last_release_ms > slot.ttl_ms {
                        slot.dead = true;
                        self.live -= 1;
                        self.expirations += 1;
                        self.wasted_idle_ms += slot.ttl_ms;
                    }
                }
            }

            /// Returns the provisioning index of the instance and whether
            /// the start is cold.
            pub fn begin(&mut self, at_ms: f64) -> (usize, bool) {
                self.reap(at_ms);
                let mut best: Option<usize> = None;
                for (i, slot) in self.slots.iter().enumerate() {
                    if slot.is_idle() && slot.busy_until_ms <= at_ms {
                        match best {
                            Some(b) if self.slots[b].last_release_ms >= slot.last_release_ms => {}
                            _ => best = Some(i),
                        }
                    }
                }
                if let Some(i) = best {
                    self.wasted_idle_ms += at_ms - self.slots[i].last_release_ms;
                    self.slots[i].busy_until_ms = f64::INFINITY;
                    self.busy += 1;
                    return (i, false);
                }
                self.slots.push(Slot {
                    busy_until_ms: f64::INFINITY,
                    last_release_ms: at_ms,
                    ttl_ms: self.idle_ttl_ms,
                    dead: false,
                });
                self.live += 1;
                self.busy += 1;
                (self.slots.len() - 1, true)
            }

            pub fn complete_with_ttl(&mut self, id: usize, finish_ms: f64, ttl_ms: f64) {
                let slot = &mut self.slots[id];
                assert!(slot.is_busy(), "instance completed twice");
                slot.busy_until_ms = finish_ms;
                slot.last_release_ms = finish_ms;
                slot.ttl_ms = ttl_ms;
                self.busy -= 1;
                if ttl_ms == 0.0 {
                    slot.dead = true;
                    self.live -= 1;
                    self.expirations += 1;
                }
            }

            pub fn evict_lru_idle(&mut self, now_ms: f64) -> bool {
                self.reap(now_ms);
                let lru = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_idle())
                    .min_by(|(_, a), (_, b)| a.last_release_ms.total_cmp(&b.last_release_ms))
                    .map(|(i, _)| i);
                match lru {
                    Some(i) => {
                        self.wasted_idle_ms += now_ms - self.slots[i].last_release_ms;
                        self.slots[i].dead = true;
                        self.live -= 1;
                        self.evictions += 1;
                        true
                    }
                    None => false,
                }
            }

            pub fn retire_idle(&mut self, now_ms: f64) -> usize {
                self.reap(now_ms);
                let mut reclaimed = 0;
                for slot in &mut self.slots {
                    if slot.is_idle() {
                        self.wasted_idle_ms += now_ms - slot.last_release_ms;
                        slot.dead = true;
                        self.live -= 1;
                        self.evictions += 1;
                        reclaimed += 1;
                    }
                }
                reclaimed
            }

            pub fn oldest_idle_release_ms(&mut self, now_ms: f64) -> Option<f64> {
                self.reap(now_ms);
                self.slots
                    .iter()
                    .filter(|s| s.is_idle())
                    .map(|s| s.last_release_ms)
                    .min_by(|a, b| a.total_cmp(b))
            }

            pub fn finalize(&mut self, end_ms: f64) -> usize {
                let mut reclaimed = 0;
                for slot in &mut self.slots {
                    if slot.is_idle() {
                        slot.dead = true;
                        self.live -= 1;
                        self.expirations += 1;
                        self.wasted_idle_ms +=
                            (end_ms - slot.last_release_ms).clamp(0.0, slot.ttl_ms);
                        reclaimed += 1;
                    }
                }
                reclaimed
            }

            pub fn provisioned(&self) -> usize {
                self.slots.len()
            }

            pub fn live_at(&mut self, now_ms: f64) -> usize {
                self.reap(now_ms);
                self.live
            }

            pub fn warm_idle_at(&mut self, now_ms: f64) -> usize {
                self.reap(now_ms);
                self.slots.iter().filter(|s| s.is_idle()).count()
            }
        }
    }

    /// One scripted pool operation; times are relative to a clock that
    /// only moves forward, as in the fleet and the harness.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Advance the clock by this many ms (zero makes equal times).
        Tick(f64),
        Begin,
        /// Complete the k-th busy instance (modulo their count), released
        /// at `now + offset` (negative: in the past; positive: in the
        /// future, as the harness does) with this TTL.
        Complete {
            k: usize,
            offset_ms: f64,
            ttl_ms: f64,
        },
        Reap,
        EvictLru,
        RetireIdle,
        LiveAt,
        WarmIdleAt,
        OldestIdle,
        Finalize,
    }

    /// TTLs covering zero (reclaim at once), windows short and long
    /// enough that a later release expires first, the pool default, and
    /// forever. Times and windows are not multiples of a power of two, so
    /// float sums depend on their order and an accrual out of
    /// provisioning order shows in the bits.
    const TTLS: [f64; 6] = [0.0, 3.1, 10.7, 40.3, DEFAULT_TTL, f64::INFINITY];
    const OFFSETS: [f64; 6] = [0.0, 0.0, 1.7, 7.3, -2.1, 30.1];
    const DEFAULT_TTL: f64 = 25.9;

    fn decode((op, a, b, c): (u32, u32, u32, u32)) -> Op {
        match op {
            0..=2 => Op::Tick(f64::from(a % 8) * 2.3),
            3..=6 => Op::Begin,
            7..=10 => Op::Complete {
                k: a as usize,
                offset_ms: OFFSETS[b as usize % OFFSETS.len()],
                ttl_ms: TTLS[c as usize % TTLS.len()],
            },
            11 => Op::Reap,
            12 => Op::EvictLru,
            13 => Op::RetireIdle,
            14 => Op::LiveAt,
            15 => Op::WarmIdleAt,
            16 => Op::OldestIdle,
            _ => Op::Finalize,
        }
    }

    fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u32..18, 0u32..64, 0u32..6, 0u32..6), 0..160)
            .prop_map(|raw| raw.into_iter().map(decode).collect())
    }

    /// The slab's structural invariants: the idle list is in (release,
    /// provisioning) order and holds exactly the idle slots, the deadline
    /// bound is a bound, and every slot is idle, busy or free.
    fn check_structure(pool: &WarmPool) {
        let mut idle = 0;
        let mut prev = NIL;
        let mut i = pool.lru;
        while i != NIL {
            let s = &pool.slots[i as usize];
            assert_eq!(s.state, State::Idle);
            assert_eq!(s.prev, prev);
            if prev != NIL {
                let p = &pool.slots[prev as usize];
                let order = p
                    .release_ms
                    .total_cmp(&s.release_ms)
                    .then(p.seq.cmp(&s.seq));
                assert!(order.is_lt(), "idle list out of order");
            }
            assert!(pool.next_deadline_ms <= s.release_ms + s.ttl_ms);
            idle += 1;
            prev = i;
            i = s.next;
        }
        assert_eq!(pool.mru, prev);
        assert_eq!(idle, pool.idle);
        let mut free = 0;
        let mut f = pool.free;
        while f != NIL {
            assert_eq!(pool.slots[f as usize].state, State::Free);
            free += 1;
            f = pool.slots[f as usize].next;
        }
        let busy = pool.slots.iter().filter(|s| s.state == State::Busy).count();
        assert_eq!(busy, pool.busy);
        assert_eq!(idle + busy + free, pool.slots.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The slab matches the keep-everything reference on every return
        /// value and counter, bit for bit, after every operation — and
        /// never holds more slots than the peak number of live instances.
        #[test]
        fn slab_pool_matches_the_reference_model(ops in ops_strategy()) {
            let mut pool = WarmPool::new(DEFAULT_TTL);
            let mut model = reference::RefPool::new(DEFAULT_TTL);
            // Busy instances as (slab id, reference index) pairs, and the
            // slab id of each reference instance, by provisioning index.
            let mut busy: Vec<(InstanceId, usize)> = Vec::new();
            let mut ids: Vec<InstanceId> = Vec::new();
            let mut now = 0.0;
            let mut peak_live = 0;
            for op in ops {
                match op {
                    Op::Tick(dt) => now += dt,
                    Op::Begin => {
                        let (id, cold) = pool.begin(now);
                        let (idx, ref_cold) = model.begin(now);
                        prop_assert_eq!(cold, ref_cold);
                        if cold {
                            prop_assert_eq!(idx, ids.len());
                            ids.push(id);
                        } else {
                            prop_assert_eq!(ids[idx], id, "reused a different instance");
                        }
                        busy.push((id, idx));
                    }
                    Op::Complete { k, offset_ms, ttl_ms } => {
                        if busy.is_empty() {
                            continue;
                        }
                        let (id, idx) = busy.swap_remove(k % busy.len());
                        pool.complete_with_ttl(id, now + offset_ms, ttl_ms);
                        model.complete_with_ttl(idx, now + offset_ms, ttl_ms);
                    }
                    Op::Reap => {
                        let before = model.expirations;
                        model.reap(now);
                        prop_assert_eq!(pool.reap(now), model.expirations - before);
                    }
                    Op::EvictLru => prop_assert_eq!(pool.evict_lru_idle(now), model.evict_lru_idle(now)),
                    Op::RetireIdle => prop_assert_eq!(pool.retire_idle(now), model.retire_idle(now)),
                    Op::LiveAt => prop_assert_eq!(pool.live_at(now), model.live_at(now)),
                    Op::WarmIdleAt => prop_assert_eq!(pool.warm_idle_at(now), model.warm_idle_at(now)),
                    Op::OldestIdle => prop_assert_eq!(
                        pool.oldest_idle_release_ms(now).map(f64::to_bits),
                        model.oldest_idle_release_ms(now).map(f64::to_bits)
                    ),
                    Op::Finalize => prop_assert_eq!(pool.finalize(now), model.finalize(now)),
                }
                peak_live = peak_live.max(model.live);
                prop_assert_eq!(pool.provisioned(), model.provisioned());
                prop_assert_eq!(pool.in_flight(), model.busy);
                prop_assert_eq!(pool.idle + pool.busy, model.live);
                prop_assert_eq!(pool.evictions(), model.evictions);
                prop_assert_eq!(pool.expirations(), model.expirations);
                prop_assert_eq!(pool.wasted_idle_ms().to_bits(), model.wasted_idle_ms.to_bits());
                prop_assert!(pool.slots.len() <= peak_live, "slot storage above peak live");
                check_structure(&pool);
            }
        }
    }
}
