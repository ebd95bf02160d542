//! The computed table: one bounded, lossy, direct-mapped memo shared by
//! every cached operation of a [`crate::Manager`] (CUDD's "computed
//! table").
//!
//! Each slot holds a whole key `(op, a, b, c)` and its result. A key maps
//! to exactly one slot through a fixed multiplicative hash; an insert
//! overwrites whatever the slot held, and a probe hits only when all four
//! key words match. Losing an entry therefore costs a recomputation, never
//! a wrong answer, and BDD canonicity makes the recomputed result the same
//! handle.
//!
//! The size follows the manager instead of a knob: it starts at
//! `MIN_SLOTS` and, whenever peak live nodes cross the next power of two,
//! is replaced by an empty table of that many slots, up to `MAX_SLOTS`
//! (20 bytes a slot, so about 20 MB at the cap).

/// Slots of a fresh manager's table.
pub(crate) const MIN_SLOTS: usize = 1 << 12;
/// Largest table: growth stops here whatever the node count.
pub(crate) const MAX_SLOTS: usize = 1 << 20;

/// The operation a slot memoizes. Discriminant 0 marks an empty slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `a ∧ b`, key `a < b`.
    And = 1,
    /// `a ∨ b`, key `a < b`.
    Or,
    /// `a ⊕ b`, key `a < b`.
    Xor,
    /// `¬a`.
    Not,
    /// `ite(a, b, c)`.
    Ite,
    /// `∃ varset b. a`.
    Exists,
    /// `∃ varset c. a ∧ b`, key `a < b`.
    AndExists,
    /// `a` renamed by map `b`.
    Rename,
    /// `a ∧ b = ∅` holds (`a < b`); the result word is unused.
    Disjoint,
    /// `a ∧ b ∧ c = ∅` holds (`a < b < c`); the result word is unused.
    Disjoint3,
    /// `a ⇒ b` is valid; the result word is unused.
    Implies,
}

/// A slot: `[tag, a, b, c, result]`. All zeros is the empty slot, so a
/// table is a zeroed allocation whose pages cost no memory until used.
type Slot = [u32; 5];

/// The table plus its probe counters (which survive clears and growth).
pub(crate) struct ComputedTable {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the slot.
    shift: u32,
    /// Set by every insert, so clearing an untouched table is free (a
    /// sift clears once per adjacent swap without running any op).
    dirty: bool,
    pub(crate) lookups: u64,
    pub(crate) hits: u64,
}

impl ComputedTable {
    pub(crate) fn new() -> Self {
        let mut t =
            ComputedTable { slots: Vec::new(), shift: 0, dirty: false, lookups: 0, hits: 0 };
        t.resize(MIN_SLOTS);
        t
    }

    /// Replace the table by an empty one of `n` (a power of two) slots.
    fn resize(&mut self, n: usize) {
        self.slots = Vec::new(); // release the old table before allocating
        self.slots = vec![[0; 5]; n];
        self.shift = 64 - n.trailing_zeros();
        self.dirty = false;
    }

    /// Number of slots (a power of two in `[MIN_SLOTS, MAX_SLOTS]`).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Grow (emptying the table) once `live` nodes reach twice the slots:
    /// the size is the largest power of two not above the peak.
    #[inline]
    pub(crate) fn fit(&mut self, live: usize) {
        if live >= 2 * self.slots.len() && self.slots.len() < MAX_SLOTS {
            self.resize((1 << live.ilog2()).min(MAX_SLOTS));
        }
    }

    #[inline]
    fn index(&self, op: Op, a: u32, b: u32, c: u32) -> usize {
        let ab = (u64::from(a) << 32 | u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let c_op = (u64::from(c) << 8 | op as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        ((ab ^ c_op.rotate_left(29)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The memoized result for the key, counting the probe.
    #[inline]
    pub(crate) fn get(&mut self, op: Op, a: u32, b: u32, c: u32) -> Option<u32> {
        self.lookups += 1;
        let [tag, sa, sb, sc, result] = self.slots[self.index(op, a, b, c)];
        if tag == op as u32 && sa == a && sb == b && sc == c {
            self.hits += 1;
            Some(result)
        } else {
            None
        }
    }

    /// Memoize `result` for the key, evicting the slot's previous entry.
    #[inline]
    pub(crate) fn put(&mut self, op: Op, a: u32, b: u32, c: u32, result: u32) {
        let i = self.index(op, a, b, c);
        self.slots[i] = [op as u32, a, b, c, result];
        self.dirty = true;
    }

    /// Forget every entry (node slots were recycled or levels moved).
    pub(crate) fn clear(&mut self) {
        if self.dirty {
            self.resize(self.slots.len());
        }
    }
}
