//! The computed table — the one bounded, lossy memo every cached BDD
//! operation shares — against a truth-table oracle.
//!
//! Every function of three variables is built once, indexed by its truth
//! table, so an operation is right iff its result is the handle stored at
//! the oracle's table. The pairwise sweeps put tens of thousands of keys
//! through a table of a few thousand slots, so entries are evicted all
//! the time and a probe that matched a partial key would show up as a
//! wrong handle. Also checked: the hash is deterministic (two managers
//! running the same sequence report the same statistics), results stay
//! right when collection or sifting clears the table mid-sequence, and
//! the table's size follows peak live nodes up to its cap.

use stsyn_repro::bdd::{Bdd, Manager, ManagerStats, VarId};

const MIN_SLOTS: usize = 1 << 12;
const MAX_SLOTS: usize = 1 << 20;

/// Six interleaved variables `x0 x0' x1 x1' x2 x2'` and every function of
/// the current three and of the primed three, each indexed by truth
/// table: bit `t` of the index is the value under the assignment whose
/// bit `k` is variable `k` of the triple.
struct Fixture {
    m: Manager,
    cur: Vec<VarId>,
    primed: Vec<VarId>,
    fs: Vec<Bdd>,
    pfs: Vec<Bdd>,
}

fn from_table(m: &mut Manager, vars: &[VarId], table: u8) -> Bdd {
    let mut f = Bdd::FALSE;
    for t in 0..8 {
        if table >> t & 1 == 1 {
            let mut cube = Bdd::TRUE;
            for (k, &v) in vars.iter().enumerate() {
                let lit = m.literal(v, t >> k & 1 == 1);
                cube = m.and(cube, lit);
            }
            f = m.or(f, cube);
        }
    }
    f
}

fn fixture() -> Fixture {
    let mut m = Manager::new();
    let vs = m.new_vars(6);
    let cur = vec![vs[0], vs[2], vs[4]];
    let primed = vec![vs[1], vs[3], vs[5]];
    let fs = (0..=255).map(|t| from_table(&mut m, &cur, t)).collect();
    let pfs = (0..=255).map(|t| from_table(&mut m, &primed, t)).collect();
    Fixture { m, cur, primed, fs, pfs }
}

/// `∃ vars. t` for the variables whose bits are set in `mask`.
fn exists_table(t: u8, mask: usize) -> u8 {
    (0..8)
        .filter(|&x| (0..8).any(|y| y & !mask == x & !mask && t >> y & 1 == 1))
        .fold(0, |acc, x| acc | 1 << x)
}

/// splitmix64: a fixed-seed generator, so every run samples the same
/// triples.
struct Rng(u64);

impl Rng {
    fn next_table(&mut self) -> u8 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as u8
    }
}

/// Check every cached operation against the oracle: all pairs `(a, b)`
/// with `(a + b) % stride == 0` for the two-operand ones, 4096 seeded
/// triples for the three-operand ones, every function for the unary ones.
fn check_ops(fx: &mut Fixture, stride: usize) {
    let Fixture { m, cur, primed, fs, pfs } = fx;
    let sets: Vec<_> = (0..8usize)
        .map(|mask| {
            let vars: Vec<VarId> = (0..3).filter(|k| mask >> k & 1 == 1).map(|k| cur[k]).collect();
            m.varset(&vars)
        })
        .collect();
    let to_primed = m.rename_map(&[(cur[0], primed[0]), (cur[1], primed[1]), (cur[2], primed[2])]);
    let to_cur = m.rename_map(&[(primed[0], cur[0]), (primed[1], cur[1]), (primed[2], cur[2])]);
    for a in 0..=255u8 {
        let f = fs[a as usize];
        assert_eq!(m.not(f), fs[!a as usize], "not {a}");
        assert_eq!(m.rename(f, to_primed), pfs[a as usize], "rename {a}");
        assert_eq!(m.rename(pfs[a as usize], to_cur), f, "rename back {a}");
        for (mask, &set) in sets.iter().enumerate() {
            assert_eq!(m.exists(f, set), fs[exists_table(a, mask) as usize], "exists {a} {mask}");
        }
        for b in (0..=255u8).filter(|&b| (a as usize + b as usize).is_multiple_of(stride)) {
            let g = fs[b as usize];
            assert_eq!(m.and(f, g), fs[(a & b) as usize], "and {a} {b}");
            assert_eq!(m.or(f, g), fs[(a | b) as usize], "or {a} {b}");
            assert_eq!(m.xor(f, g), fs[(a ^ b) as usize], "xor {a} {b}");
            assert_eq!(m.intersects(f, g), a & b != 0, "intersects {a} {b}");
            assert_eq!(m.implies_holds(f, g), a & !b == 0, "implies_holds {a} {b}");
            let mask = (a ^ b) as usize % 8;
            let want = fs[exists_table(a & b, mask) as usize];
            assert_eq!(m.and_exists(f, g, sets[mask]), want, "and_exists {a} {b} {mask}");
        }
    }
    let mut rng = Rng(0x00c0_ffee);
    for _ in 0..4096 {
        let (a, b, c) = (rng.next_table(), rng.next_table(), rng.next_table());
        let (f, g, h) = (fs[a as usize], fs[b as usize], fs[c as usize]);
        assert_eq!(m.ite(f, g, h), fs[(a & b | !a & c) as usize], "ite {a} {b} {c}");
        assert_eq!(m.and_intersects(f, g, h), a & b & c != 0, "and_intersects {a} {b} {c}");
    }
}

#[test]
fn every_cached_op_matches_the_truth_table_oracle_over_all_3_variable_functions() {
    let mut fx = fixture();
    check_ops(&mut fx, 1);
    // Far more keys went through the table than it has slots.
    assert_eq!(fx.m.cache_slots(), MIN_SLOTS);
    assert!(fx.m.stats().cache_lookups > 16 * MIN_SLOTS as u64);
    // A second pass meets whatever the first left in the table.
    check_ops(&mut fx, 1);
}

#[test]
fn results_stay_right_when_gc_and_sift_clear_the_table_mid_sequence() {
    let mut fx = fixture();
    check_ops(&mut fx, 5);
    // Collect everything but the current-variable functions: the primed
    // ones' slots are recycled while the table still holds entries keyed
    // by them, and rebuilding them in reverse puts other functions there.
    let freed = fx.m.gc(&fx.fs);
    assert!(freed > 0);
    let primed = fx.primed.clone();
    fx.pfs = (0..=255).rev().map(|t| from_table(&mut fx.m, &primed, t)).collect();
    fx.pfs.reverse();
    check_ops(&mut fx, 5);
    let roots: Vec<Bdd> = fx.fs.iter().chain(&fx.pfs).copied().collect();
    fx.m.sift(&roots);
    assert!(fx.m.check_consistency().is_ok());
    check_ops(&mut fx, 5);
}

/// `OR_i (x_i ∧ y_i)` under the order `x_0 … x_{n-1} y_0 … y_{n-1}`: about
/// `2^(n+1)` nodes, built with a handful of operations.
fn blow_up(m: &mut Manager, n: usize) -> Bdd {
    let vs = m.new_vars(2 * n);
    let mut f = Bdd::FALSE;
    for i in 0..n {
        let (x, y) = (m.var(vs[i]), m.var(vs[n + i]));
        let xy = m.and(x, y);
        f = m.or(f, xy);
    }
    f
}

#[test]
fn two_managers_running_the_same_sequence_report_identical_stats() {
    let run = || {
        let mut fx = fixture();
        check_ops(&mut fx, 7);
        let f = blow_up(&mut fx.m, 12);
        let nf = fx.m.not(f);
        fx.m.gc(&[nf]);
        let _ = blow_up(&mut fx.m, 6);
        (fx.m.stats(), fx.m.cache_slots())
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    assert!(a.0.cache_hits > 0 && a.0.cache_hits < a.0.cache_lookups);
}

/// The size rule: the largest power of two not above peak live nodes,
/// within `[MIN_SLOTS, MAX_SLOTS]`.
fn expected_slots(stats: &ManagerStats) -> usize {
    (1 << stats.peak_live_nodes.ilog2()).clamp(MIN_SLOTS, MAX_SLOTS)
}

#[test]
fn table_is_a_power_of_two_that_tracks_peak_live_nodes_up_to_its_cap() {
    let mut m = Manager::new();
    assert_eq!(m.cache_slots(), MIN_SLOTS);
    let mut sizes = vec![m.cache_slots()];
    for n in [4, 8, 10, 12, 13] {
        let f = blow_up(&mut m, n);
        let s = m.stats();
        assert!(m.cache_slots().is_power_of_two());
        assert_eq!(m.cache_slots(), expected_slots(&s), "after n = {n}: {s:?}");
        sizes.push(m.cache_slots());
        // Collection frees nodes but never shrinks the table.
        m.gc(&[f]);
        assert_eq!(m.cache_slots(), expected_slots(&s));
    }
    assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    assert!(*sizes.last().unwrap() > MIN_SLOTS, "the sequence must grow the table: {sizes:?}");
    // A resumed run adopts its predecessor's peak, and with it the table
    // size that peak calls for, which stops at the cap.
    m.adopt_counters(&ManagerStats { peak_live_nodes: 3 * MAX_SLOTS, ..Default::default() });
    assert_eq!(m.cache_slots(), MAX_SLOTS);
    let f = blow_up(&mut m, 3);
    assert_eq!(m.cache_slots(), MAX_SLOTS);
    assert!(m.eval(f, &vec![true; m.num_vars() as usize]));
}
