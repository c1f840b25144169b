//! Hash-consing for explorer states.
//!
//! The explorer visits up to hundreds of thousands of states whose
//! components (globals map, object heap, per-task stacks, mailboxes)
//! mostly repeat: one task steps, everything else is unchanged.
//! Instead of keeping full [`State`] clones in the graph and hashing
//! whole states into the visited set, each component is
//! interned into a [`LockFreePool`] once and a state collapses to a
//! [`StateSig`] — eight words, `Copy`, cheap to hash and compare
//! *exactly* (the visited set no longer relies on 64-bit hashes being
//! collision-free).
//!
//! States are copy-on-write (see [`crate::state`]), and the pools keep
//! the shared payloads themselves: a fresh component's handle moves
//! into its pool, [`Interner::materialize`] hands the pools' handles
//! back out, and a component a step did not write is still the pool's
//! own payload, found by its address without hashing.
//!
//! One concrete backend — [`Interner`] — serves the level-synchronized
//! graph builder (`graph.rs`), whose workers share one interner across
//! threads; it is uncontended-cheap enough on one worker too. The
//! builder's visited set does not live here: it is updated on one
//! thread, so it is a plain map over signatures (`explore::Visited`).
//!
//! The membership layer is built from two pieces:
//!
//! * [`Arena`] — a sharded, append-only payload store. Slots are
//!   reserved with a relaxed `fetch_add` and **never move**: chunks
//!   are allocated geometrically and pinned behind `OnceLock`, so a
//!   published id maps to one `&T` for the arena's lifetime (the
//!   no-relocation property id stability depends on).
//! * [`Table`] — a lock-free open-addressing id index. Each slot is
//!   one `AtomicU64` packing `(tag << 32) | (id + 1)`; zero means
//!   empty. Insert-if-absent is a single CAS on the first empty slot
//!   of a bounded quadratic probe sequence; growth is pre-sized
//!   segment chaining (×8 per segment), never rehashing, so published
//!   ids are never relocated.
//!
//! The same table and arena also hold each exploration's orbit keys
//! (`KeyTable`): symmetry canonicalization sorts sibling task records
//! by a rendered key, and the table renders each task-pool record's
//! key once instead of on every transition.
//!
//! Interning is per-exploration: signatures from different
//! [`Interner`]s are meaningless to compare.

use crate::event::StateView;
use crate::state::{Cell, InFlight, Object, Output, State, Task, TaskId};
use crate::value::Value;
use std::borrow::Borrow;
use std::cell::UnsafeCell;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The rustc-style Fx hasher: multiplicative, not HashDoS-resistant —
/// exactly right for hashing interpreter states, where speed dominates
/// and inputs are not adversarial. Profiling showed SipHash spending a
/// double-digit share of exploration time on the larger
/// message-passing state spaces.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Fx's multiplicative rounds leave the low 32 bits of the
        // state independent of the high half of the final input word
        // (low product bits never see high multiplicand bits). The
        // open-addressing [`Table`] indexes with low hash bits, so
        // key families differing only in a trailing element's high
        // half — e.g. task lists packed two ids per word — would
        // share every probe window of every segment and saturate the
        // chain. One splitmix64 finalizer restores full-width
        // avalanche for three extra multiplies per hash.
        let mut z = self.hash;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;
pub(crate) type FxHashSet<T> = std::collections::HashSet<T, FxBuild>;
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuild>;

pub(crate) fn fx_hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    FxBuild::default().hash_one(value)
}

/// Rewrite a message list's correlation tags into a pure function of
/// its Eq-class. [`InFlight`]'s `Eq`/`Hash` deliberately ignore `seq`
/// and `from`, so a hash-consing pool keeps whichever Eq-equal copy
/// was interned *first* — a worker-scheduling race under concurrent
/// interning. Left alone, materialized states would carry
/// run-dependent tags, and the `Received`/`DeadLettered` events the
/// interpreter emits from those states (they copy `inflight.seq`)
/// would differ between otherwise identical explorations — breaking
/// the state-graph store's promise that a build is byte-identical at
/// any worker count. So the pools store every message list with
/// canonical tags (`seq` := position in the list, `from` := task 0),
/// and every materialized state is a pure function of its
/// [`StateSig`] without rewriting anything.
fn canonicalize_tags(msgs: &mut [InFlight]) {
    for (i, m) in msgs.iter_mut().enumerate() {
        m.seq = i as u64;
        m.from = TaskId(0);
    }
}

/// Whether a list's tags are already [`canonicalize_tags`]'s.
fn tags_canonical(msgs: &[InFlight]) -> bool {
    msgs.iter().enumerate().all(|(i, m)| m.seq == i as u64 && m.from == TaskId(0))
}

/// The in-flight multiset's canonical order: by the Eq-class key
/// (`to`, `msg`), the order [`State::add_inflight`] inserts in.
fn by_eq_class(a: &InFlight, b: &InFlight) -> CmpOrdering {
    (a.to.0, &a.msg).cmp(&(b.to.0, &b.msg))
}

fn in_canonical_order(msgs: &[InFlight]) -> bool {
    msgs.windows(2).all(|w| by_eq_class(&w[0], &w[1]).is_le())
}

/// Rewrite a live (just-applied) state into exactly the form
/// [`Interner::materialize`] returns for its signature: step counter
/// frozen, in-flight multiset in canonical order, correlation tags a
/// pure function of position. Corridor compression threads the live
/// successor state from hop to hop instead of round-tripping
/// `intern` → `materialize` through the pools; this keeps the shortcut
/// observationally identical — a re-walk entering the corridor at the
/// same signature sees a byte-identical state either way. A list that
/// is already canonical is left shared.
pub(crate) fn canonicalize_live(state: &mut State) {
    state.steps = 0;
    if !in_canonical_order(&state.inflight) {
        Arc::make_mut(&mut state.inflight).sort_by(by_eq_class);
    }
    for msgs in [&mut state.inflight, &mut state.dead_letters] {
        if !tags_canonical(msgs) {
            canonicalize_tags(Arc::make_mut(msgs).as_mut_slice());
        }
    }
}

/// Canonicalize a state to its symmetry-orbit representative.
///
/// `PARA SYMMETRIC` arms compile to one shared code unit and tag each
/// spawned child with `Task.sym = Some(code_unit)`. Children of the
/// same parent carrying the same tag are interchangeable by
/// construction: permuting their *whole records* (frames, held locks,
/// status, counters) yields a state the program cannot distinguish.
/// This function picks one representative per orbit by sorting each
/// sibling group's records under an id-blind key and renumbering, so
/// the interner hash-conses the whole orbit onto one `StateSig` and
/// the explored graph is the quotient graph.
///
/// A task's id is its index in `State.tasks`, so moving the record
/// handles renumbers the tasks. Ids stored elsewhere live in exactly
/// two places — `Task.parent` and the owner half of `State.locks`
/// values — and both are remapped through the permutation: a record
/// is copied only when its parent moved, the lock table only when an
/// owner did. `InFlight.from` is deliberately left alone: its
/// `Eq`/`Hash` ignore it and the pools store canonical tags. [`Value`]
/// has no task-id variant, so globals/objects/locals need no
/// rewriting. Groups whose parent is itself a symmetric task are
/// skipped — identity is always a sound canonical form, and permuting
/// nested groups independently of their parents is not.
///
/// The id-blind key is the record's `Debug` rendering (records carry
/// no id; `parent` is constant within a group). Every field that
/// could distinguish two siblings is in the record — held locks are
/// mirrored in `Task.held` — so equal keys mean genuinely
/// interchangeable tasks, and the original-index tie-break cannot
/// leak into the canonical form: two identical records cannot own the
/// same exclusive cell, and swapping lock-free identical records is a
/// no-op.
///
/// This free function renders every sibling's key on every call; it
/// is the reference. Explorations canonicalize through
/// `Interner::canonicalize_symmetry` instead, which keeps one key per
/// task-pool record and looks it up afterwards. The key is a pure
/// function of the record, so a stored key is the string this
/// function would render, the sort sees the same
/// `(key, original index)` pairs, and both pick the same
/// representative and permutation.
///
/// Returns the applied task permutation (`perm[old] = new`) iff the
/// state changed, i.e. the incoming state was not already its orbit
/// representative. Callers tracking per-task metadata keyed by id
/// (sleep sets) must remap it through the permutation.
pub fn canonicalize_symmetry(state: &mut State) -> Option<Vec<usize>> {
    canonicalize_by(state, |task| render_orbit_key(task))
}

/// A task record's id-blind orbit key: its `Debug` rendering (records
/// carry no id, so the rendering is id-blind as it stands).
fn render_orbit_key(task: &Task) -> String {
    format!("{task:?}")
}

/// The one grouping, sort and permute routine behind both
/// [`canonicalize_symmetry`] and [`Interner::canonicalize_symmetry`];
/// `key` supplies a sibling's orbit key, rendered or looked up, and may
/// swap the sibling's handle for an equal one.
fn canonicalize_by<K: Ord>(
    state: &mut State,
    mut key: impl FnMut(&mut Arc<Task>) -> K,
) -> Option<Vec<usize>> {
    // Sibling groups keyed by (parent index, symmetry class).
    let mut groups: BTreeMap<(usize, u32), Vec<usize>> = BTreeMap::new();
    for (i, t) in state.tasks.iter().enumerate() {
        if let (Some(parent), Some(sym)) = (t.parent, t.sym) {
            if state.tasks[parent.0].sym.is_some() {
                continue;
            }
            groups.entry((parent.0, sym)).or_default().push(i);
        }
    }
    groups.retain(|_, members| members.len() > 1);
    if groups.is_empty() {
        return None;
    }

    // perm[old_index] = new_index; identity outside the groups.
    let n = state.tasks.len();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut changed = false;
    for members in groups.values() {
        let mut keyed: Vec<(K, usize)> =
            members.iter().map(|&i| (key(&mut state.tasks[i]), i)).collect();
        keyed.sort();
        for (&slot, (_, old)) in members.iter().zip(keyed.iter()) {
            if perm[*old] != slot {
                changed = true;
            }
            perm[*old] = slot;
        }
    }
    if !changed {
        return None;
    }

    // Record handles move to their new index along the permutation's
    // cycles (`dest[i]`: where the handle now at `i` belongs), and
    // every `TaskId` the state stores follows them.
    let mut dest = perm.clone();
    for i in 0..n {
        while dest[i] != i {
            let j = dest[i];
            state.tasks.swap(i, j);
            dest.swap(i, j);
        }
    }
    for task in &mut state.tasks {
        if let Some(parent) = task.parent.filter(|p| perm[p.0] != p.0) {
            Arc::make_mut(task).parent = Some(TaskId(perm[parent.0]));
        }
    }
    if state.locks.values().any(|(owner, _)| perm[owner.0] != owner.0) {
        for owner in Arc::make_mut(&mut state.locks).values_mut() {
            owner.0 = TaskId(perm[owner.0 .0]);
        }
    }
    Some(perm)
}

// --- false-sharing padding ----------------------------------------------

/// Pad-and-align wrapper keeping hot shared words on their own cache
/// line (crossbeam's `CachePadded`, hand-rolled — no new deps).
/// 128 bytes covers the spatial-prefetcher pair on x86_64 and the
/// 128-byte lines on apple-silicon; on everything else it merely
/// wastes a line of padding per instance, which the handful of
/// instances here (arena shard cursors, table counters) can afford.
#[repr(align(128))]
#[derive(Default)]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

// --- append-only payload arena ------------------------------------------

/// Arena shard count. The shard index occupies the low bits of an id,
/// the slot index the high bits — the same id layout the old
/// lock-striped pools used, so ids still fit `u32`.
const ARENA_SHARDS: usize = 8;
const ARENA_SHARD_BITS: u32 = ARENA_SHARDS.trailing_zeros();
/// Capacity of a shard's first chunk; chunk `k` holds `BASE << k`
/// slots, so shard capacity doubles with each chunk appended.
const ARENA_BASE: usize = 64;
/// Chunks per shard: shard capacity `BASE · (2^CHUNKS − 1)` ≈ 536M
/// slots, saturating the `u32 >> ARENA_SHARD_BITS` id space.
const ARENA_CHUNKS: usize = 24;

/// A shard's reservation cursor: the next free slot and the inline
/// bytes of the payloads pushed so far (statistics only).
#[derive(Default)]
struct Cursor {
    len: AtomicU32,
    bytes: AtomicUsize,
}

struct ArenaShard<T> {
    /// Next free slot. Relaxed `fetch_add` *reserves*; publication of
    /// the slot's contents rides the table-slot CAS (see [`Table`]).
    /// Padded: every interning thread bumps some shard cursor on
    /// every miss, and the cursors would otherwise share lines.
    cursor: CachePadded<Cursor>,
    /// Geometrically growing chunks, each pinned once allocated:
    /// slot `s` lives in chunk `⌊log2(s/BASE + 1)⌋` forever, so a
    /// `&T` handed out for an id stays valid while the arena lives —
    /// the no-relocation property that makes published ids stable
    /// without any read-side synchronization beyond the table's.
    chunks: [Chunk<T>; ARENA_CHUNKS],
}

/// One geometrically sized block of arena slots, allocated on first
/// use and never moved afterwards.
type Chunk<T> = OnceLock<Box<[UnsafeCell<MaybeUninit<T>>]>>;

/// Sharded append-only store with stable `u32` ids and `&T` access.
///
/// Writers reserve a slot (relaxed), write it exactly once, then
/// publish the id through a [`Table`] CAS (Release); readers obtain
/// ids only from Acquire loads of table slots, so the payload write
/// happens-before every read of it. Slots that lose a same-key
/// insert race are *waste*: written, never published, dropped with
/// the arena.
pub(crate) struct Arena<T> {
    shards: Box<[ArenaShard<T>]>,
}

// SAFETY: the arena hands `&T` to multiple threads (Sync ⇒ T: Sync)
// and moves T values in from pushing threads (⇒ T: Send). Interior
// mutability is confined to never-yet-published slots: each slot is
// written exactly once by the reserving thread before its id escapes.
unsafe impl<T: Send + Sync> Sync for Arena<T> {}
unsafe impl<T: Send> Send for Arena<T> {}

impl<T> Arena<T> {
    fn new() -> Self {
        let shards = (0..ARENA_SHARDS)
            .map(|_| ArenaShard {
                cursor: CachePadded::default(),
                chunks: std::array::from_fn(|_| OnceLock::new()),
            })
            .collect();
        Arena { shards }
    }

    /// Chunk index and intra-chunk offset of shard-local slot `s`.
    #[inline]
    fn locate(s: usize) -> (usize, usize) {
        let k = (s / ARENA_BASE + 1).ilog2() as usize;
        (k, s - ARENA_BASE * ((1 << k) - 1))
    }

    /// Store `value`, whose payload is `bytes` long, in the shard
    /// selected by `shard_hint` and return its arena id. The id is
    /// meaningless to other threads until published through a
    /// table-slot CAS.
    fn push(&self, shard_hint: u64, value: T, bytes: usize) -> u32 {
        let shard_ix = (shard_hint as usize) & (ARENA_SHARDS - 1);
        let shard = &self.shards[shard_ix];
        // Relaxed: this is a pure slot reservation. The happens-before
        // edge readers need (payload write → read) is provided by the
        // Release CAS that publishes the id and the Acquire load that
        // observes it, not by this counter.
        let slot = shard.cursor.len.fetch_add(1, Ordering::Relaxed) as usize;
        shard.cursor.bytes.fetch_add(bytes, Ordering::Relaxed);
        assert!(slot < (1 << (32 - ARENA_SHARD_BITS)), "arena shard overflow");
        let (k, off) = Self::locate(slot);
        let chunk = shard.chunks[k].get_or_init(|| {
            (0..(ARENA_BASE << k)).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect()
        });
        // SAFETY: `slot` was reserved by exactly this call's fetch_add,
        // so no other thread writes or reads this cell until the id is
        // published (which happens after this write).
        unsafe { (*chunk[off].get()).write(value) };
        ((slot as u32) << ARENA_SHARD_BITS) | shard_ix as u32
    }

    /// Read a published slot. `id` must have been obtained from an
    /// Acquire load of a table slot (or from `push` on this thread).
    #[inline]
    fn get(&self, id: u32) -> &T {
        let shard = &self.shards[(id as usize) & (ARENA_SHARDS - 1)];
        let (k, off) = Self::locate((id >> ARENA_SHARD_BITS) as usize);
        let chunk = shard.chunks[k].get().expect("published id implies allocated chunk");
        // SAFETY: published ids index initialized, never-again-mutated
        // slots; the publishing CAS's Release ordering made the write
        // visible to whoever handed us the id.
        unsafe { (*chunk[off].get()).assume_init_ref() }
    }

    /// Total slots reserved (including unpublished race waste).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.cursor.len.load(Ordering::Relaxed) as usize).sum()
    }

    /// Inline bytes of every payload pushed (race waste included). Read
    /// for statistics only.
    fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.cursor.bytes.load(Ordering::Relaxed)).sum()
    }
}

impl<T> Drop for Arena<T> {
    fn drop(&mut self) {
        // &mut self: all writers are done (scoped threads joined), so
        // every reserved slot is fully written.
        for shard in self.shards.iter_mut() {
            let mut remaining = *shard.cursor.len.get_mut() as usize;
            for (k, chunk) in shard.chunks.iter_mut().enumerate() {
                let Some(chunk) = chunk.get_mut() else { break };
                let cap = ARENA_BASE << k;
                for cell in chunk.iter_mut().take(remaining) {
                    // SAFETY: slots below `len` were written exactly once.
                    unsafe { cell.get_mut().assume_init_drop() };
                }
                remaining = remaining.saturating_sub(cap);
            }
        }
    }
}

// --- lock-free id index -------------------------------------------------

/// First-segment capacity (power of two).
const SEG0_CAP: usize = 1 << 10;
/// Segment count; segment `k` holds `SEG0_CAP << 3k` slots (×8 per
/// hop), so eight segments cover ~2.4 billion slots — growth is
/// *pre-sized*: no rehash ever moves a published slot.
const SEGS: usize = 8;
/// Probe attempts per segment before spilling to the next one.
/// Triangular offsets 0,1,3,…,120 — all distinct and < SEG0_CAP, so a
/// window never revisits a slot.
const PROBE_WINDOW: usize = 16;

/// The probe window of segment `k`: [`PROBE_WINDOW`] in the two small,
/// cache-resident segments, twice that from the 64K-slot segment on.
/// A spill allocates a segment 8× the size of the last, and a 16-probe
/// window fills by chance at about half load, so whether a table of
/// some 40K keys allocates a 4 MiB segment was up to its hash values.
/// With 32 probes (offsets up to 496, distinct in any segment of 64K
/// slots) a large segment spills only when it is nearly full. Lookups
/// and inserts use the same window per segment, so the spill predicate
/// stays monotone.
fn window(k: usize) -> usize {
    if k < 2 {
        PROBE_WINDOW
    } else {
        2 * PROBE_WINDOW
    }
}

/// Contention/observability counters exposed through
/// [`crate::explore::Stats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Contention {
    pub probe_len_max: usize,
    pub claim_cas_retries: usize,
    pub arena_bytes: usize,
}

impl Contention {
    pub fn absorb(&mut self, other: Contention) {
        self.probe_len_max = self.probe_len_max.max(other.probe_len_max);
        self.claim_cas_retries += other.claim_cas_retries;
        self.arena_bytes += other.arena_bytes;
    }
}

/// Lock-free open-addressing index from 64-bit hashes to arena ids.
///
/// Each slot packs `(tag << 32) | (id + 1)` into one `AtomicU64`
/// (zero = empty), where `tag` is the hash's high half — a cheap
/// pre-filter so probing almost never touches arena payloads it won't
/// match. Collision policy is bounded quadratic probing inside a
/// segment, then *segment chaining*: when a whole probe window is
/// occupied by other keys, the same probe sequence continues in the
/// next (8× larger) segment. Lookups stop at the first empty slot.
///
/// Exactly-once publication: slots go empty→occupied exactly once
/// (CAS from zero), so the "first empty slot of the probe sequence"
/// is a monotone frontier. Two racers interning the same key walk the
/// same sequence; whichever CAS lands first occupies a slot the other
/// must still probe, and the loser's equality check on that slot
/// converts it into a dedup hit. The loser's pre-pushed arena payload
/// becomes unpublished waste — bounded by actual same-key races,
/// observable via `claim_cas_retries`.
pub(crate) struct Table {
    segs: [OnceLock<Box<[AtomicU64]>>; SEGS],
    /// Longest probe sequence any operation walked (saturation
    /// indicator: long probes mean clustering or a hot segment
    /// spilling). Padded — these are the table's only shared
    /// mutable words outside the slots themselves.
    probe_max: CachePadded<AtomicU32>,
    /// CAS attempts that lost to a concurrent insert (same slot).
    cas_retries: CachePadded<AtomicU64>,
}

impl Table {
    fn new() -> Self {
        Table {
            segs: std::array::from_fn(|_| OnceLock::new()),
            probe_max: CachePadded(AtomicU32::new(0)),
            cas_retries: CachePadded(AtomicU64::new(0)),
        }
    }

    fn seg(&self, k: usize) -> &[AtomicU64] {
        self.segs[k].get_or_init(|| (0..(SEG0_CAP << (3 * k))).map(|_| AtomicU64::new(0)).collect())
    }

    #[inline]
    fn record_probes(&self, probes: u32) {
        // Only write the shared max when it actually advances; after
        // warmup this is load-only.
        if probes > self.probe_max.load(Ordering::Relaxed) {
            self.probe_max.fetch_max(probes, Ordering::Relaxed);
        }
    }

    /// Find the id whose entry satisfies `eq`, or insert a fresh one.
    /// `make` pushes the payload into the arena and returns its id; it
    /// is called at most once, lazily, when the probe first reaches an
    /// empty slot. Returns `(id, freshly_inserted)`.
    fn find_or_insert(
        &self,
        hash: u64,
        mut eq: impl FnMut(u32) -> bool,
        make: impl FnOnce() -> u32,
    ) -> (u32, bool) {
        let tag = (hash >> 32) as u32;
        let mut make = Some(make);
        let mut made: Option<u32> = None;
        let mut probes = 0u32;
        for k in 0..SEGS {
            let seg = self.seg(k);
            let mask = seg.len() - 1;
            let start = hash as usize;
            'probe: for j in 0..window(k) {
                let slot = &seg[(start + j * (j + 1) / 2) & mask];
                probes += 1;
                // Acquire: pairs with the Release CAS below — observing
                // a published word makes the winner's arena write
                // visible to `eq` and to the caller's subsequent `get`.
                let mut word = slot.load(Ordering::Acquire);
                loop {
                    if word == 0 {
                        let id = match made {
                            Some(id) => id,
                            None => {
                                let id = (make.take().expect("make called once"))();
                                made = Some(id);
                                id
                            }
                        };
                        let packed = ((tag as u64) << 32) | (id as u64 + 1);
                        // Release on success: publishes the arena
                        // payload written by `make` (and everything
                        // else this thread wrote into the entry) to
                        // any thread that Acquire-loads this slot.
                        // Acquire on failure: we are about to inspect
                        // the winner's entry through the loaded word.
                        match slot.compare_exchange(0, packed, Ordering::Release, Ordering::Acquire)
                        {
                            Ok(_) => {
                                self.record_probes(probes);
                                return (id, true);
                            }
                            Err(current) => {
                                self.cas_retries.fetch_add(1, Ordering::Relaxed);
                                word = current;
                                continue; // re-examine the winner's word
                            }
                        }
                    }
                    if (word >> 32) as u32 == tag {
                        let id = (word as u32).wrapping_sub(1);
                        if eq(id) {
                            self.record_probes(probes);
                            return (id, false);
                        }
                    }
                    continue 'probe; // occupied by a different key
                }
            }
            // Whole window occupied by other keys: spill. The spill
            // predicate is monotone (slots never empty again), so all
            // racers for a key agree on which segment it lands in.
        }
        panic!("interner table overflow (all {SEGS} segments saturated)");
    }

    /// Read-only membership probe: the id satisfying `eq`, if present.
    fn lookup(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let tag = (hash >> 32) as u32;
        for k in 0..SEGS {
            // A key spills past segment k only after filling k's whole
            // probe window, which forces segment k+1's allocation — so
            // an unallocated segment proves absence.
            let seg = self.segs[k].get()?;
            let mask = seg.len() - 1;
            let start = hash as usize;
            for j in 0..window(k) {
                // Acquire: see `find_or_insert`.
                let word = seg[(start + j * (j + 1) / 2) & mask].load(Ordering::Acquire);
                if word == 0 {
                    // First empty slot proves absence: occupancy is
                    // monotone, so this slot was also empty when any
                    // earlier insert of this key probed it — the
                    // insert would have landed here or earlier.
                    return None;
                }
                if (word >> 32) as u32 == tag {
                    let id = (word as u32).wrapping_sub(1);
                    if eq(id) {
                        return Some(id);
                    }
                }
            }
        }
        None
    }

    fn contention(&self) -> Contention {
        Contention {
            probe_len_max: self.probe_max.load(Ordering::Relaxed) as usize,
            claim_cas_retries: self.cas_retries.load(Ordering::Relaxed) as usize,
            arena_bytes: 0,
        }
    }
}

// --- hash-consing pool ---------------------------------------------------

/// One lock-free hash-consing table of shared payloads: interning an
/// equal value twice returns the same id, and `get` hands out the
/// pool's own handle to it (no copy, no lock).
///
/// Every payload whose handle can reach a state is also indexed by its
/// address, so a handle that is still the pool's own is found without
/// hashing or comparing contents. That is sound because the pool holds
/// a handle to each payload for its whole life: the address cannot be
/// freed and reused while the pool lives, and a state holding the same
/// handle copies it before any write (`Arc::make_mut` copies whatever
/// is shared). So an address match means the very payload, hence equal
/// contents. Only published payloads are indexed — never a state's own
/// transient handle — and a racer that misses an address entry not yet
/// published falls back to hashing, which finds the same id. Payloads
/// no state ever holds (the task lists) stay out of the index.
///
/// A payload may be unsized: a state's task list is an `Arc<[u32]>`,
/// whose ids sit in the handle's own allocation, so a query reads them
/// one hop from the arena slot.
pub(crate) struct LockFreePool<T: ?Sized> {
    /// Content index: payload hash → id.
    table: Table,
    /// Address index: payload address → id.
    by_addr: Table,
    arena: Arena<Arc<T>>,
}

/// A payload's address, as the address index keys it.
fn addr_of<T: ?Sized>(handle: &Arc<T>) -> usize {
    Arc::as_ptr(handle).cast::<()>() as usize
}

impl<T: Eq + Hash + ?Sized> LockFreePool<T> {
    fn new() -> Self {
        LockFreePool { table: Table::new(), by_addr: Table::new(), arena: Arena::new() }
    }

    /// The id of `value` if it is one of this pool's payloads.
    fn id_by_addr(&self, value: &Arc<T>) -> Option<u32> {
        let addr = addr_of(value);
        self.by_addr.lookup(fx_hash_of(&addr), |id| addr_of(self.arena.get(id)) == addr)
    }

    /// Intern a shared value: by address when it is one of the pool's
    /// payloads, else by content. A fresh value's handle moves into
    /// the pool, so the value itself is never copied.
    fn intern(&self, value: &Arc<T>) -> u32 {
        match self.id_by_addr(value) {
            Some(id) => id,
            None => self.intern_shared(&**value, || Arc::clone(value)),
        }
    }

    /// Intern by content a payload whose handle reaches states: when
    /// `value` is new, the payload `make` supplies joins the address
    /// index too.
    fn intern_shared<Q>(&self, value: &Q, make: impl FnOnce() -> Arc<T>) -> u32
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let (id, fresh) = self.intern_by_content(value, make);
        if fresh {
            let addr = addr_of(self.arena.get(id));
            self.by_addr.find_or_insert(
                fx_hash_of(&addr),
                |other| addr_of(self.arena.get(other)) == addr,
                || id,
            );
        }
        id
    }

    /// Intern by content; `make` supplies the payload to store when
    /// the value is new. Returns the id and whether it is fresh.
    fn intern_by_content<Q>(&self, value: &Q, make: impl FnOnce() -> Arc<T>) -> (u32, bool)
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let hash = fx_hash_of(value);
        self.table.find_or_insert(
            hash,
            |id| (**self.arena.get(id)).borrow() == value,
            || {
                let payload = make();
                let bytes = std::mem::size_of_val::<T>(&payload);
                self.arena.push(hash, payload, bytes)
            },
        )
    }

    fn get(&self, id: u32) -> &Arc<T> {
        self.arena.get(id)
    }

    /// Counters of both indexes; `arena_bytes` counts each stored
    /// payload's inline size, not its handle's.
    fn contention(&self) -> Contention {
        let mut c = self.table.contention();
        c.absorb(self.by_addr.contention());
        c.arena_bytes = self.arena.bytes();
        c
    }
}

// --- orbit keys ----------------------------------------------------------

/// One exploration's orbit keys, by task-pool id: each sibling record
/// symmetry canonicalization sorted, with its key rendered on first
/// sight. A record the step did not write is still the task pool's
/// payload, so its id — and with it its key — is found by address. The
/// same lock-free table as the pools, so the graph builder's workers
/// share it; a lost insert race renders one key twice and publishes
/// one.
struct KeyTable {
    table: Table,
    arena: Arena<(u32, String)>,
}

impl KeyTable {
    fn new() -> Self {
        KeyTable { table: Table::new(), arena: Arena::new() }
    }

    /// The orbit key of task-pool record `id`, which is `task`: exactly
    /// [`render_orbit_key`]'s string, rendered only the first time.
    fn key(&self, id: u32, task: &Task) -> &str {
        let hash = fx_hash_of(&id);
        let (slot, _fresh) = self.table.find_or_insert(
            hash,
            |slot| self.arena.get(slot).0 == id,
            || {
                let key = (id, render_orbit_key(task));
                self.arena.push(hash, key, std::mem::size_of::<(u32, String)>())
            },
        );
        &self.arena.get(slot).1
    }

    fn contention(&self) -> Contention {
        let mut c = self.table.contention();
        c.arena_bytes = self.arena.bytes();
        c
    }
}

// --- the interner --------------------------------------------------------

/// An interned state: component pool ids plus the scalar fields.
/// Exact equality of signatures (within one [`Interner`]) is exact
/// equality of the underlying states, modulo `steps` (frozen to 0 by
/// the explorer) and message `seq`/`from` tags (which [`InFlight`]'s
/// own `Eq` already ignores).
///
/// Four-byte aligned, so it is 36 bytes with no padding and a visited
/// set's `(StateSig, u32)` key is 40 bytes, not 48.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C, packed(4))]
pub(crate) struct StateSig {
    globals: u32,
    objects: u32,
    tasks: u32,
    locks: u32,
    inflight: u32,
    dead: u32,
    output: u32,
    next_seq: u64,
}

impl StateSig {
    /// An all-zero stand-in for records whose real signature is
    /// assigned later (graph deserialization replay); always
    /// overwritten before any pool lookup.
    pub(crate) const PLACEHOLDER: StateSig = StateSig {
        globals: 0,
        objects: 0,
        tasks: 0,
        locks: 0,
        inflight: 0,
        dead: 0,
        output: 0,
        next_seq: 0,
    };
}

/// Component pools for one exploration: the single concrete backend
/// behind the graph builder's planner. `intern` takes `&self` and is
/// safe (and cheap) from any number of threads — the builder's level
/// workers share one — and ids are stable for the interner's lifetime.
pub(crate) struct Interner {
    globals: LockFreePool<BTreeMap<String, Value>>,
    /// Heaps as vectors of object handles: a heap differing from a
    /// pooled one in one object shares every other object with it.
    objects: LockFreePool<Vec<Arc<Object>>>,
    task: LockFreePool<Task>,
    task_lists: LockFreePool<[u32]>,
    locks: LockFreePool<BTreeMap<Cell, (TaskId, u32)>>,
    /// Shared by `inflight` and `dead_letters` (same element type,
    /// heavy overlap).
    msgs: LockFreePool<Vec<InFlight>>,
    output: LockFreePool<Output>,
    /// Symmetry canonicalization's orbit keys, one per sibling record
    /// of the task pool. Allocated by the first lookup, so an
    /// exploration that never sorts a sibling group (no `PARA
    /// SYMMETRIC` block, or the symmetry layer off) allocates nothing
    /// for it, and the task pool's slots stay one handle wide.
    orbit_keys: OnceLock<KeyTable>,
}

impl Interner {
    pub fn new() -> Self {
        Interner {
            globals: LockFreePool::new(),
            objects: LockFreePool::new(),
            task: LockFreePool::new(),
            task_lists: LockFreePool::new(),
            locks: LockFreePool::new(),
            msgs: LockFreePool::new(),
            output: LockFreePool::new(),
            orbit_keys: OnceLock::new(),
        }
    }

    /// The orbit-key table, allocated on first use.
    fn orbit_keys(&self) -> &KeyTable {
        self.orbit_keys.get_or_init(KeyTable::new)
    }

    /// [`canonicalize_symmetry`] with each sibling's orbit key looked
    /// up by its task-pool id instead of rendered: the same
    /// representative and permutation, since a stored key is the string
    /// the free function would render. A sibling the step did not write
    /// is found by address; one it wrote is interned here (it would be
    /// at [`Interner::intern`] anyway) and its handle swapped for the
    /// pool's equal one, so interning the state finds it by address
    /// too. Every canonicalization an exploration performs goes through
    /// here.
    pub fn canonicalize_symmetry(&self, state: &mut State) -> Option<Vec<usize>> {
        canonicalize_by(state, |task| {
            let id = self.task.intern(task);
            let pooled = self.task.get(id);
            if !Arc::ptr_eq(task, pooled) {
                *task = Arc::clone(pooled);
            }
            self.orbit_keys().key(id, task)
        })
    }

    pub fn intern(&self, state: &State) -> StateSig {
        let task_ids: Vec<u32> = state.tasks.iter().map(|t| self.task.intern(t)).collect();
        StateSig {
            globals: self.globals.intern(&state.globals),
            objects: self.objects.intern(&state.objects),
            tasks: self.task_lists.intern_by_content(&task_ids[..], || Arc::from(&task_ids[..])).0,
            locks: self.locks.intern(&state.locks),
            inflight: self.intern_msgs(&state.inflight, true),
            dead: self.intern_msgs(&state.dead_letters, false),
            output: self.output.intern(&state.output),
            next_seq: state.next_seq,
        }
    }

    /// Intern a message list in the form the pool stores: canonical
    /// tags (see [`canonicalize_tags`]) and, for the in-flight list,
    /// canonical order. Delivery is unordered (any in-flight message
    /// for a receiver may arrive next), so that list is semantically a
    /// multiset, kept sorted by the Eq-class key (`to`, `msg`) so that
    /// states differing only in send order merge; `seq` and `from` are
    /// correlation tags that `InFlight`'s Eq already ignores. The
    /// dead-letter list keeps its order: it is genuinely
    /// state-visible. A live list is copied only when it is new to the
    /// pool and its tags (or order) are not canonical yet.
    fn intern_msgs(&self, msgs: &Arc<Vec<InFlight>>, multiset: bool) -> u32 {
        if let Some(id) = self.msgs.id_by_addr(msgs) {
            return id;
        }
        if multiset && !in_canonical_order(msgs) {
            let mut sorted = (**msgs).clone();
            sorted.sort_by(by_eq_class);
            canonicalize_tags(&mut sorted);
            return self.msgs.intern(&Arc::new(sorted));
        }
        self.msgs.intern_shared(&**msgs, || {
            if tags_canonical(msgs) {
                Arc::clone(msgs)
            } else {
                let mut copy = (**msgs).clone();
                canonicalize_tags(&mut copy);
                Arc::new(copy)
            }
        })
    }

    /// Reconstruct a full state (with `steps == 0`; step counts are
    /// path-dependent and the explorer freezes them before interning)
    /// from the pools' handles: one vector of task handles is the only
    /// allocation. Message lists come back with the canonical
    /// correlation tags the pool stores them with; under concurrent
    /// interning this is what keeps materialization a pure function of
    /// the signature rather than of pool insertion order.
    pub fn materialize(&self, sig: StateSig) -> State {
        State {
            globals: Arc::clone(self.globals.get(sig.globals)),
            objects: Arc::clone(self.objects.get(sig.objects)),
            tasks: self
                .task_lists
                .get(sig.tasks)
                .iter()
                .map(|&id| Arc::clone(self.task.get(id)))
                .collect(),
            locks: Arc::clone(self.locks.get(sig.locks)),
            inflight: Arc::clone(self.msgs.get(sig.inflight)),
            output: Arc::clone(self.output.get(sig.output)),
            next_seq: sig.next_seq,
            steps: 0,
            dead_letters: Arc::clone(self.msgs.get(sig.dead)),
        }
    }

    /// Read the state behind `sig` in place: its tasks and globals are
    /// borrowed straight from the arenas, nothing is cloned.
    pub fn view(&self, sig: StateSig) -> SigView<'_> {
        SigView { pools: self, sig }
    }

    /// Aggregate contention counters across the component pools.
    pub fn contention(&self) -> Contention {
        let mut c = self.globals.contention();
        c.absorb(self.objects.contention());
        c.absorb(self.task.contention());
        c.absorb(self.task_lists.contention());
        c.absorb(self.locks.contention());
        c.absorb(self.msgs.contention());
        c.absorb(self.output.contention());
        if let Some(keys) = self.orbit_keys.get() {
            c.absorb(keys.contention());
        }
        c
    }
}

/// An interned state read in place ([`Interner::view`]): the
/// [`StateView`] a graph query resolves labels, counters and globals
/// against. Task records are exactly the ones [`Interner::materialize`]
/// hands out, so every answer read here is the materialized state's.
#[derive(Clone, Copy)]
pub(crate) struct SigView<'a> {
    pools: &'a Interner,
    sig: StateSig,
}

impl SigView<'_> {
    /// Pool ids of the state's task records, in task-index order.
    fn task_ids(&self) -> &[u32] {
        self.pools.task_lists.get(self.sig.tasks)
    }
}

impl StateView for SigView<'_> {
    fn task_at(&self, id: TaskId) -> Option<&Task> {
        self.task_ids().get(id.0).map(|&t| &**self.pools.task.get(t))
    }

    fn labelled(&self, label: &str) -> Option<&Task> {
        self.task_ids().iter().map(|&t| &**self.pools.task.get(t)).find(|t| t.label == label)
    }

    fn global(&self, name: &str) -> Option<&Value> {
        self.pools.globals.get(self.sig.globals).get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Choice, Interp};

    /// The in-place view of `sig` reads exactly what `materialize`
    /// returns: every task by id and by label, and every global.
    fn assert_view_agrees(pools: &Interner, sig: StateSig) {
        let state = pools.materialize(sig);
        let view = pools.view(sig);
        for (i, task) in state.tasks.iter().enumerate() {
            assert_eq!(view.task_at(TaskId(i)), Some(&**task), "task {i} by id");
            assert_eq!(
                view.labelled(&task.label),
                state.task_by_label(&task.label),
                "task {i} by label"
            );
        }
        assert_eq!(view.task_at(TaskId(state.tasks.len())), None, "no task past the end");
        assert_eq!(view.labelled("no such task"), None);
        for (name, value) in state.globals.iter() {
            assert_eq!(view.global(name), Some(value), "global {name}");
        }
        assert_eq!(view.global("no such global"), None);
    }

    #[test]
    fn intern_roundtrips_and_dedups() {
        let interp =
            Interp::from_source("x = 1\nPARA\n    x = x + 1\n    x = x + 2\nENDPARA\nPRINT x\n")
                .unwrap();
        let pools = Interner::new();
        let mut s = interp.initial_state();
        let sig0 = pools.intern(&s);
        assert_eq!(pools.intern(&s), sig0, "interning is stable");
        let back = pools.materialize(sig0);
        assert_eq!(back, s, "materialize inverts intern");

        interp.apply(&mut s, &Choice::Step(crate::state::TaskId(0))).unwrap();
        s.steps = 0;
        let sig1 = pools.intern(&s);
        assert_ne!(sig0, sig1, "different states get different signatures");
        assert_eq!(pools.materialize(sig1), s);

        // Step main into the PARA so there are several tasks to look up.
        while s.tasks.len() < 3 {
            interp.apply(&mut s, &Choice::Step(crate::state::TaskId(0))).unwrap();
        }
        s.steps = 0;
        let sig2 = pools.intern(&s);
        assert_eq!(pools.materialize(sig2), s);
        for sig in [sig0, sig1, sig2] {
            assert_view_agrees(&pools, sig);
        }
    }

    /// Materialized states share the pools' payloads, and a write
    /// copies before it changes anything: the step copies the task and
    /// the globals it writes, the other records stay shared, and the
    /// pools — so every later materialization — stay as interned.
    #[test]
    fn writes_copy_instead_of_changing_the_pools() {
        let interp =
            Interp::from_source("x = 1\nPARA\n    x = x + 1\n    x = x + 2\nENDPARA\nPRINT x\n")
                .unwrap();
        let pools = Interner::new();
        let mut s = interp.initial_state();
        while s.tasks.len() < 3 {
            interp.apply(&mut s, &Choice::Step(TaskId(0))).unwrap();
        }
        s.steps = 0;
        let sig = pools.intern(&s);
        let (a, b) = (pools.materialize(sig), pools.materialize(sig));
        assert!(Arc::ptr_eq(&a.globals, &b.globals), "materialize hands out the pool's handles");
        assert!(a.tasks.iter().zip(&b.tasks).all(|(x, y)| Arc::ptr_eq(x, y)));
        assert_eq!(pools.intern(&a), sig, "an untouched state interns to its signature");

        let mut c = pools.materialize(sig);
        interp.apply(&mut c, &Choice::Step(TaskId(1))).unwrap();
        assert!(!Arc::ptr_eq(&c.tasks[1], &a.tasks[1]), "the stepped task was copied");
        assert!(!Arc::ptr_eq(&c.globals, &a.globals), "the written globals were copied");
        assert!(Arc::ptr_eq(&c.tasks[2], &a.tasks[2]), "an unwritten task stays shared");
        assert_eq!(pools.materialize(sig), s, "the pools are unchanged");
        c.steps = 0;
        assert_ne!(pools.intern(&c), sig);
        assert_eq!(pools.materialize(pools.intern(&c)), c);
    }

    #[test]
    fn intern_agrees_across_threads() {
        // Interning the same states from several threads yields ids
        // that materialize back to the same states, and equal states
        // get equal signatures regardless of which thread interned
        // them first.
        let interp =
            Interp::from_source("PARA\n    PRINT \"a \"\n    PRINT \"b \"\nENDPARA\n").unwrap();
        let pools = Interner::new();
        let s0 = interp.initial_state();
        let sigs: Vec<StateSig> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pools = &pools;
                    let s0 = &s0;
                    scope.spawn(move || pools.intern(s0))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert!(sigs.windows(2).all(|w| w[0] == w[1]), "equal states, equal signatures");
        assert_eq!(pools.materialize(sigs[0]), s0);
    }

    /// Seeded multi-thread hammer: N threads race to intern M keys
    /// (far more keys than the first table segment's slots, forcing
    /// collision probing *and* segment spills) in per-thread shuffled
    /// orders. Exactly-once id assignment: all threads agree on every
    /// key's id, distinct keys get distinct ids, and every id
    /// round-trips to its payload.
    #[test]
    fn hammer_exactly_once_ids_and_roundtrips() {
        const THREADS: usize = if cfg!(miri) { 2 } else { 4 };
        const KEYS: u64 = if cfg!(miri) { 64 } else { 4096 };
        let pool: LockFreePool<Vec<u64>> = LockFreePool::new();
        let payload = |k: u64| vec![k, k.wrapping_mul(0x9e37_79b9_7f4a_7c15), !k];
        let maps: Vec<Vec<(u64, u32)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let pool = &pool;
                    scope.spawn(move || {
                        // splitmix64-seeded shuffle so each thread
                        // interns in a different (but reproducible)
                        // order.
                        let mut order: Vec<u64> = (0..KEYS).collect();
                        let mut s = 0xdead_beef_u64.wrapping_add(t as u64);
                        for i in (1..order.len()).rev() {
                            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                            let mut z = s;
                            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                            z ^= z >> 31;
                            order.swap(i, (z as usize) % (i + 1));
                        }
                        let mut out: Vec<(u64, u32)> = order
                            .into_iter()
                            .map(|k| (k, pool.intern(&Arc::new(payload(k)))))
                            .collect();
                        out.sort_unstable();
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for m in &maps[1..] {
            assert_eq!(m, &maps[0], "every thread observed the same key→id assignment");
        }
        let mut ids: Vec<u32> = maps[0].iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, KEYS, "distinct keys got distinct ids");
        for &(k, id) in &maps[0] {
            assert_eq!(**pool.get(id), payload(k), "id→payload round-trip is stable");
        }
        let c = pool.contention();
        assert!(c.arena_bytes > 0, "arena accounting is live");
        assert!(c.probe_len_max >= 1, "probe accounting is live");
    }

    /// Regression pin: `InFlight` correlation tags come back canonical.
    /// `InFlight`'s Eq/Hash ignore `seq`/`from`, so the pool keeps
    /// whichever Eq-equal copy was interned first — it must store the
    /// tags as a pure function of the list (seq := position, from :=
    /// task 0), or materialized states and graph builds stop being
    /// byte-identical across worker counts.
    #[test]
    fn materialized_inflight_tags_are_canonical() {
        let interp = Interp::from_source(crate::figures::FIG5_MESSAGE_PASSING).unwrap();
        let pools = Interner::new();
        let mut s = interp.initial_state();
        // Drive until two in-flight messages exist, with history-laden
        // tags.
        let mut guard = 0;
        while s.inflight.len() < 2 && guard < 64 {
            let choices = interp.choices(&s);
            let step = choices
                .iter()
                .find(|c| matches!(c, Choice::Step(_)))
                .cloned()
                .unwrap_or_else(|| choices[0].clone());
            interp.apply(&mut s, &step).unwrap();
            guard += 1;
        }
        assert_eq!(s.inflight.len(), 2, "setup reaches two in-flight messages");
        // Scramble the correlation tags: Eq/Hash ignore them, so the
        // signature must not change…
        s.steps = 0;
        let sig = pools.intern(&s);
        let mut scrambled = s.clone();
        let inflight = Arc::make_mut(&mut scrambled.inflight);
        inflight[0].seq = 991;
        inflight[0].from = TaskId(7);
        inflight[1].seq = 990;
        inflight[1].from = TaskId(9);
        assert_eq!(pools.intern(&scrambled), sig, "tags are outside the Eq-class");
        // …and materialization must return canonical tags whichever
        // copy won the pool slot.
        let back = pools.materialize(sig);
        for (i, m) in back.inflight.iter().enumerate() {
            assert_eq!(m.seq, i as u64, "seq is the canonical position");
            assert_eq!(m.from, TaskId(0), "from is canonicalized to task 0");
        }
        assert_eq!(back, s, "Eq-class unchanged by canonicalization");
    }

    /// Memoized orbit keys are the rendered keys: on every state an
    /// unreduced exploration reaches, and along seeded random walks of
    /// a program too large to enumerate, the memo's permutation equals
    /// the rendering reference's and every sibling's stored key is the
    /// string the reference renders. One interner serves each program,
    /// so almost every lookup is a hit on a record met before.
    #[test]
    fn memoized_orbit_keys_match_rendered_keys() {
        use crate::figures;
        use crate::oracle::Oracle;
        use crate::schedule::{RandomScheduler, Scheduler};

        fn check(pools: &Interner, state: &State, what: &str) -> bool {
            let (mut memoized, mut rendered) = (state.clone(), state.clone());
            let memo = pools.canonicalize_symmetry(&mut memoized);
            assert_eq!(memo, canonicalize_symmetry(&mut rendered), "{what}: permutation");
            assert_eq!(memoized, rendered, "{what}: representative");
            for t in state.tasks.iter().filter(|t| t.sym.is_some()) {
                let id = pools.task.intern(t);
                assert_eq!(pools.orbit_keys().key(id, t), render_orbit_key(t), "{what}: key");
            }
            memo.is_some()
        }

        let programs = [
            ("dining(2)", figures::dining(2)),
            ("dining(3)", figures::dining(3)),
            ("naive dining(2)", figures::dining_naive(2)),
            ("producers/consumers(2,2)", figures::producers_consumers(2, 2)),
        ];
        for (name, src) in &programs {
            let interp = Interp::from_source(src).unwrap();
            let (states, stats) = Oracle::new(&interp).states(&[], usize::MAX, false).unwrap();
            assert!(!stats.truncated, "{name}: enumerated exhaustively");
            if *name == "dining(3)" {
                assert_eq!(states.len(), 13_206, "{name}: the unreduced space");
            }
            let pools = Interner::new();
            let permuted = states.iter().filter(|s| check(&pools, s, name)).count();
            assert!(permuted > 0, "{name}: some state is not its own representative");
            let records = pools.orbit_keys().arena.len();
            assert!(records < states.len(), "{name}: {records} records, lookups must hit");
        }

        let interp = Interp::from_source(&figures::dining(8)).unwrap();
        let pools = Interner::new();
        let mut permuted = 0;
        for seed in 0..16 {
            let mut scheduler = RandomScheduler::new(seed);
            let mut state = interp.initial_state();
            loop {
                permuted += check(&pools, &state, &format!("dining(8) seed {seed}")) as usize;
                let choices = interp.choices(&state);
                if choices.is_empty() {
                    break;
                }
                let pick = scheduler.pick(&choices, &state);
                interp.apply(&mut state, &choices[pick]).unwrap();
            }
        }
        assert!(permuted > 0, "dining(8): the walks leave the representatives");
    }
}
