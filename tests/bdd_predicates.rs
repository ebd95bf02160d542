//! The non-constructive BDD predicates (`intersects`, `and_intersects`,
//! `implies_holds`) against their constructive definitions, exhaustively
//! over small variable counts and on a seeded random sample; plus the two
//! ways their negative-answer memos could go stale (garbage collection and
//! sifting recycle node slots) and budget exhaustion inside a predicate.

use stsyn_repro::bdd::{Bdd, BddError, Budget, Manager, Resource};

/// Every boolean function of `n` variables, indexed by truth table: bit
/// `t` of the index is the value under the assignment whose bit `k` is
/// variable `k`.
fn all_functions(m: &mut Manager, n: usize) -> Vec<Bdd> {
    let vars = m.new_vars(n);
    (0u64..1 << (1 << n)).map(|table| from_table(m, &vars, table)).collect()
}

fn from_table(m: &mut Manager, vars: &[stsyn_repro::bdd::VarId], table: u64) -> Bdd {
    let mut f = Bdd::FALSE;
    for t in 0..1usize << vars.len() {
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

/// The constructive answers, computed before the predicate under test so
/// its memo is not what answers them.
fn constructive(m: &mut Manager, f: Bdd, g: Bdd) -> (bool, bool) {
    let meet = !m.and(f, g).is_false();
    let holds = m.diff(f, g).is_false();
    (meet, holds)
}

fn check_pairs(m: &mut Manager, fs: &[Bdd]) {
    for &f in fs {
        for &g in fs {
            let (meet, holds) = constructive(m, f, g);
            assert_eq!(m.intersects(f, g), meet, "intersects({f:?}, {g:?})");
            assert_eq!(m.implies_holds(f, g), holds, "implies_holds({f:?}, {g:?})");
        }
    }
}

fn and3(m: &mut Manager, f: Bdd, g: Bdd, h: Bdd) -> bool {
    let fg = m.and(f, g);
    !m.and(fg, h).is_false()
}

/// splitmix64: a fixed-seed generator, so the random sample is the same on
/// every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A truth table over 5 variables; every other one is sparse (two
    /// tables ANDed) so that disjoint triples come up often.
    fn table5(&mut self, sparse: bool) -> u64 {
        let t = self.next() & 0xffff_ffff;
        if sparse {
            t & self.next()
        } else {
            t
        }
    }
}

#[test]
fn two_way_predicates_match_definitions_over_all_3_variable_functions() {
    let mut m = Manager::new();
    let fs = all_functions(&mut m, 3);
    assert_eq!(fs.len(), 256);
    check_pairs(&mut m, &fs);
    // A second pass answers from the warm memos and must agree too.
    check_pairs(&mut m, &fs);
}

#[test]
fn and_intersects_matches_definition_over_all_2_variable_functions() {
    let mut m = Manager::new();
    let fs = all_functions(&mut m, 2);
    for &f in &fs {
        for &g in &fs {
            for &h in &fs {
                let want = and3(&mut m, f, g, h);
                assert_eq!(m.and_intersects(f, g, h), want, "and_intersects({f:?}, {g:?}, {h:?})");
            }
        }
    }
}

#[test]
fn and_intersects_matches_definition_on_a_random_5_variable_sample() {
    let mut m = Manager::new();
    let vars = m.new_vars(5);
    let mut rng = Rng(0x5eed);
    let pool: Vec<Bdd> = (0..48)
        .map(|k| {
            let table = rng.table5(k % 2 == 1);
            from_table(&mut m, &vars, table)
        })
        .collect();
    let (mut disjoint, mut meeting) = (0, 0);
    for _ in 0..4000 {
        let pick = |r: &mut Rng| pool[(r.next() % pool.len() as u64) as usize];
        let (f, g, h) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
        let want = and3(&mut m, f, g, h);
        assert_eq!(m.and_intersects(f, g, h), want, "and_intersects({f:?}, {g:?}, {h:?})");
        if want {
            meeting += 1;
        } else {
            disjoint += 1;
        }
    }
    assert!(disjoint > 100 && meeting > 100, "sample must exercise both answers");
}

/// Warm every memo over `fs`: all pairs for the two-way predicates and a
/// spread of triples for the three-way one.
fn warm_memos(m: &mut Manager, fs: &[Bdd]) {
    for &f in fs {
        for &g in fs {
            m.intersects(f, g);
            m.implies_holds(f, g);
        }
    }
    for (k, &f) in fs.iter().enumerate() {
        for &g in fs.iter().skip(k % 7).step_by(7) {
            for &h in fs.iter().skip(k % 5).step_by(11) {
                m.and_intersects(f, g, h);
            }
        }
    }
}

/// After `f`s' slots have been freed and refilled with other functions,
/// every predicate must still agree with its definition.
fn check_after_recycling(m: &mut Manager, fresh: &[Bdd]) {
    check_pairs(m, fresh);
    for (k, &f) in fresh.iter().enumerate() {
        for &g in fresh.iter().skip(k % 7).step_by(7) {
            for &h in fresh.iter().skip(k % 5).step_by(11) {
                let want = and3(m, f, g, h);
                assert_eq!(m.and_intersects(f, g, h), want);
            }
        }
    }
}

/// The 3-variable functions rebuilt with the variables read in reverse,
/// so a recycled slot generally holds a different function than before.
fn rebuild_reversed(m: &mut Manager) -> Vec<Bdd> {
    let mut vars = m.current_order();
    vars.truncate(3);
    vars.reverse();
    (0u64..256).map(|table| from_table(m, &vars, table)).collect()
}

#[test]
fn gc_drops_predicate_memos_along_with_the_recycled_slots() {
    let mut m = Manager::new();
    let old = all_functions(&mut m, 3);
    warm_memos(&mut m, &old);
    let slots: std::collections::HashSet<u32> = old.iter().map(|f| f.index()).collect();
    let freed = m.gc(&[]);
    assert!(freed > 0);
    let fresh = rebuild_reversed(&mut m);
    let reused = fresh.iter().filter(|f| slots.contains(&f.index())).count();
    assert!(reused > 100, "the rebuilt functions must land in recycled slots");
    check_after_recycling(&mut m, &fresh);
}

#[test]
fn sift_drops_predicate_memos_along_with_the_recycled_slots() {
    let mut m = Manager::new();
    let old = all_functions(&mut m, 3);
    warm_memos(&mut m, &old);
    // Keep a few functions alive through the reorder; the rest is garbage
    // that sifting's collections free.
    let kept: Vec<Bdd> = old.iter().copied().step_by(37).collect();
    m.sift(&kept);
    assert!(m.check_consistency().is_ok());
    let fresh = rebuild_reversed(&mut m);
    check_after_recycling(&mut m, &fresh);
    check_pairs(&mut m, &kept);
}

/// Run `pred` under fault injection at every tick it can reach and under
/// every tick ceiling up to the same point: each run returns either the
/// right answer or a `BudgetExhausted` error of the right kind, never
/// panics, and leaves memos that still answer correctly afterwards. Each
/// run starts from cold memos (a collection over `roots` drops them), so
/// the interruption lands inside the walk rather than on a memo hit.
fn sweep_budget(
    m: &mut Manager,
    roots: &[Bdd],
    want: bool,
    mut pred: impl FnMut(&mut Manager) -> Result<bool, BddError>,
) {
    let mut failures = 0;
    for n in 1..=64u64 {
        m.gc(roots);
        for (budget, resource) in [
            (Budget::unlimited().with_fail_at_tick(n), Resource::Injected),
            (Budget::unlimited().with_max_ticks(n - 1), Resource::Ticks),
        ] {
            m.set_budget(budget);
            match pred(m) {
                Ok(got) => assert_eq!(got, want, "budgeted answer at tick {n}"),
                Err(e) => {
                    assert_eq!(e.resource(), resource, "tick {n}");
                    failures += 1;
                }
            }
            m.clear_budget();
            assert!(m.check_consistency().is_ok());
            assert_eq!(pred(m).unwrap(), want, "memo poisoned by an abort at tick {n}");
        }
    }
    assert!(failures > 0, "the sweep never interrupted the predicate");
}

#[test]
fn budget_exhaustion_inside_each_predicate_is_an_error_not_a_panic() {
    let mut m = Manager::new();
    let vars = m.new_vars(5);
    let mut rng = Rng(0xb0d9e7);
    let mut pool = Vec::new();
    for k in 0..12 {
        let table = rng.table5(k % 2 == 1);
        pool.push(from_table(&mut m, &vars, table));
    }
    for w in pool.windows(3) {
        let (f, g, h) = (w[0], w[1], w[2]);
        let (meet, holds) = constructive(&mut m, f, g);
        let meet3 = and3(&mut m, f, g, h);
        sweep_budget(&mut m, &pool, meet, |m| m.try_intersects(f, g));
        sweep_budget(&mut m, &pool, holds, |m| m.try_implies_holds(f, g));
        sweep_budget(&mut m, &pool, meet3, |m| m.try_and_intersects(f, g, h));
    }
}
