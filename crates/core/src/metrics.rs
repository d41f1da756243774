//! Measurements over simulation results: everything the paper's
//! evaluation figures report.

use crate::sim::SimResult;
use sbgp_asgraph::{AsGraph, AsId, Weights};
use sbgp_routing::{
    compute_tree, AtlasScratch, DestContext, RouteContext, RouteTree, RoutingAtlas, SecureSet,
    TieBreaker, TreePolicy,
};

/// Fraction of all (source, destination) pairs whose chosen path is
/// fully secure (Figure 9). The paper notes this lands just below
/// `f²`, where `f` is the fraction of secure ASes, because both
/// endpoints must be secure.
///
/// Computes every destination's route context afresh: the oracle that
/// [`secure_path_fraction_in`] must agree with bit for bit.
pub fn secure_path_fraction(
    g: &AsGraph,
    state: &SecureSet,
    policy: TreePolicy,
    tiebreaker: &dyn TieBreaker,
) -> f64 {
    let mut ctx = DestContext::new(g.len());
    let mut tree = RouteTree::new(g.len());
    pair_fraction(g, |d| {
        ctx.compute(g, d, tiebreaker);
        dest_pairs(g, &ctx, state, policy, &mut tree)
    })
}

/// [`secure_path_fraction`], reading route contexts from `atlas` (a
/// frozen-context atlas of `g` under `tiebreaker`) and computing only
/// the destinations its budget left out.
pub fn secure_path_fraction_in(
    g: &AsGraph,
    state: &SecureSet,
    policy: TreePolicy,
    tiebreaker: &dyn TieBreaker,
    atlas: &RoutingAtlas,
) -> f64 {
    let mut scratch = AtlasScratch::with_capacity(g.len());
    let mut ctx = DestContext::new(g.len());
    let mut tree = RouteTree::new(g.len());
    pair_fraction(g, |d| match atlas.get(d, &mut scratch) {
        Some(view) => dest_pairs(g, &view, state, policy, &mut tree),
        None => {
            ctx.compute(g, d, tiebreaker);
            dest_pairs(g, &ctx, state, policy, &mut tree)
        }
    })
}

/// Secure pairs over all pairs, summing `(secure, total)` pair counts
/// per destination.
fn pair_fraction(g: &AsGraph, mut per_dest: impl FnMut(AsId) -> (u64, u64)) -> f64 {
    let (mut secure_pairs, mut total_pairs) = (0u64, 0u64);
    for d in g.nodes() {
        let (secure, total) = per_dest(d);
        secure_pairs += secure;
        total_pairs += total;
    }
    if total_pairs == 0 {
        0.0
    } else {
        secure_pairs as f64 / total_pairs as f64
    }
}

/// `(secure, total)` source counts towards the destination of `ctx`.
fn dest_pairs<C: RouteContext + ?Sized>(
    g: &AsGraph,
    ctx: &C,
    state: &SecureSet,
    policy: TreePolicy,
    tree: &mut RouteTree,
) -> (u64, u64) {
    let d = ctx.dest();
    let total = (ctx.reachable() - 1) as u64;
    if !state.get(d) {
        return (0, total); // no path to an insecure destination can be secure
    }
    compute_tree(g, ctx, state, policy, tree);
    let secure = ctx
        .order()
        .iter()
        .filter(|&&x| AsId(x) != d && tree.secure[x as usize])
        .count() as u64;
    (secure, total)
}

/// Count DIAMOND scenarios (Figure 2 / Table 1): destinations for
/// which early adopter `e` holds a multi-path tiebreak set — i.e.
/// places where `e`'s security preference sets competing next hops
/// against each other. Reported per early adopter, restricted to stub
/// destinations like the paper's Table 1.
pub fn diamonds_for(g: &AsGraph, early_adopter: AsId, tiebreaker: &dyn TieBreaker) -> usize {
    let mut ctx = DestContext::new(g.len());
    let mut count = 0;
    for d in g.stubs() {
        ctx.compute(g, d, tiebreaker);
        if ctx.tiebreak_set(early_adopter).len() >= 2 {
            count += 1;
        }
    }
    count
}

/// Cumulative ISP adoption split by degree bucket (Figure 6).
///
/// Returns `(bucket_labels, per_round_cumulative_fractions)` where
/// `per_round[r][b]` is the fraction of ISPs in bucket `b` secure
/// after round `r`. Buckets partition ISPs by total degree.
pub fn adoption_by_degree(
    g: &AsGraph,
    result: &SimResult,
    bucket_edges: &[usize],
) -> (Vec<String>, Vec<Vec<f64>>) {
    let n_buckets = bucket_edges.len() + 1;
    let bucket_of = |deg: usize| -> usize {
        bucket_edges
            .iter()
            .position(|&e| deg <= e)
            .unwrap_or(n_buckets - 1)
    };
    let mut labels = Vec::with_capacity(n_buckets);
    let mut lo = 1usize;
    for &e in bucket_edges {
        labels.push(format!("{lo}-{e}"));
        lo = e + 1;
    }
    labels.push(format!("{lo}+"));

    let mut totals = vec![0usize; n_buckets];
    for n in g.isps() {
        totals[bucket_of(g.degree(n))] += 1;
    }

    let mut cumulative = vec![0usize; n_buckets];
    // Round 0: early adopter ISPs.
    let mut per_round = Vec::with_capacity(result.rounds.len() + 1);
    for &e in &result.early_adopters {
        if g.is_isp(e) {
            cumulative[bucket_of(g.degree(e))] += 1;
        }
    }
    let snapshot = |c: &[usize]| -> Vec<f64> {
        c.iter()
            .zip(&totals)
            .map(|(&s, &t)| if t == 0 { 0.0 } else { s as f64 / t as f64 })
            .collect()
    };
    per_round.push(snapshot(&cumulative));
    for r in &result.rounds {
        for &n in &r.turned_on {
            cumulative[bucket_of(g.degree(n))] += 1;
        }
        for &n in &r.turned_off {
            cumulative[bucket_of(g.degree(n))] -= 1;
        }
        per_round.push(snapshot(&cumulative));
    }
    (labels, per_round)
}

/// Projection accuracy (Figure 14 / Section 8.1): for every ISP that
/// deployed, the ratio of the projected utility it acted on to the
/// actual utility it observed in the next round. The paper finds 80%
/// of ISPs overestimate by less than 2%.
pub fn projection_accuracy(result: &SimResult) -> Vec<f64> {
    let mut ratios = Vec::new();
    for w in result.rounds.windows(2) {
        let (this, next) = (&w[0], &w[1]);
        for &n in &this.turned_on {
            let projected = this
                .projected
                .iter()
                .find(|(c, _)| *c == n)
                .map(|(_, p)| *p)
                .expect("flipped ISP must have been evaluated");
            let actual = next.utilities[n.index()];
            if actual > 0.0 {
                ratios.push(projected / actual);
            }
        }
    }
    ratios
}

/// Median of a sample (0 if empty). Used for the Figure 5 series.
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The Figure 5 series: for each round `i`, the median normalized
/// utility and median normalized *projected* utility of the ISPs that
/// deploy in round `i+1` (both normalized by starting utility).
pub fn adopter_utility_series(result: &SimResult) -> Vec<(usize, f64, f64)> {
    let mut series = Vec::new();
    for w in result.rounds.windows(2) {
        let (this, next) = (&w[0], &w[1]);
        if next.turned_on.is_empty() {
            continue;
        }
        let mut us = Vec::new();
        let mut ps = Vec::new();
        for &n in &next.turned_on {
            let start = result.starting_utilities[n.index()];
            if start <= 0.0 {
                continue;
            }
            // Utility they saw in round i (recorded at start of next).
            us.push(next.utilities[n.index()] / start);
            if let Some((_, p)) = next.projected.iter().find(|(c, _)| *c == n) {
                ps.push(p / start);
            }
        }
        series.push((this.round, median(us), median(ps)));
    }
    series
}

/// Utility trace of one node across rounds, normalized by its starting
/// utility (the Figure 4 view).
pub fn normalized_trace(result: &SimResult, n: AsId) -> Vec<f64> {
    let start = result.starting_utilities[n.index()];
    result
        .rounds
        .iter()
        .map(|r| {
            if start > 0.0 {
                r.utilities[n.index()] / start
            } else {
                0.0
            }
        })
        .collect()
}

/// Mean path length from `src` to every reachable destination — the
/// Table 3 statistic used to validate the augmented graph.
pub fn mean_path_length(g: &AsGraph, src: AsId, tiebreaker: &dyn TieBreaker) -> f64 {
    let mut ctx = DestContext::new(g.len());
    let mut sum = 0u64;
    let mut count = 0u64;
    for d in g.nodes() {
        if d == src {
            continue;
        }
        ctx.compute(g, d, tiebreaker);
        if let Some(l) = ctx.route_len(src) {
            sum += l as u64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// Total traffic transited by node `n` in the all-insecure world
/// (sum over destinations of `n`'s subtree weight) — the Section 6.8
/// "Tier 1s transit 2–9× more traffic than the CPs originate"
/// comparison.
pub fn transit_volume(g: &AsGraph, weights: &Weights, n: AsId, tiebreaker: &dyn TieBreaker) -> f64 {
    let mut ctx = DestContext::new(g.len());
    let mut tree = RouteTree::new(g.len());
    let state = SecureSet::new(g.len());
    let mut flow = Vec::new();
    let mut total = 0.0;
    for d in g.nodes() {
        if d == n {
            continue;
        }
        ctx.compute(g, d, tiebreaker);
        compute_tree(g, &ctx, &state, TreePolicy::default(), &mut tree);
        sbgp_routing::accumulate_flows(&ctx, &tree, weights, &mut flow);
        if ctx.route_len(n).is_some() {
            total += flow[n.index()] - weights.get(n);
        }
    }
    total
}

/// Reconstruct the deployment state at the end of every round by
/// replaying the recorded actions (index 0 is the initial seeded
/// state). Used by the Section 7.3 search, which asks whether an ISP
/// has a turn-off incentive in *any* state the process visits.
pub fn states_by_round(result: &SimResult) -> Vec<SecureSet> {
    let mut states = Vec::with_capacity(result.rounds.len() + 1);
    let mut state = result.initial_state.clone();
    states.push(state.clone());
    for r in &result.rounds {
        for &n in &r.turned_on {
            state.set(n, true);
        }
        for &s in &r.newly_secure_stubs {
            state.set(s, true);
        }
        for &n in &r.turned_off {
            state.set(n, false);
        }
        states.push(state.clone());
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::Simulation;
    use sbgp_asgraph::AsGraphBuilder;
    use sbgp_routing::{HashTieBreak, LowestAsnTieBreak};

    fn diamond_world() -> (AsGraph, AsId, AsId, AsId) {
        let mut b = AsGraphBuilder::new();
        let t = b.add_node(100);
        let ia = b.add_node(10);
        let ib = b.add_node(20);
        let s = b.add_node(30);
        let sa = b.add_node(40);
        let sb = b.add_node(50);
        b.add_provider_customer(t, ia).unwrap();
        b.add_provider_customer(t, ib).unwrap();
        b.add_provider_customer(ia, s).unwrap();
        b.add_provider_customer(ib, s).unwrap();
        b.add_provider_customer(ia, sa).unwrap();
        b.add_provider_customer(ib, sb).unwrap();
        (b.build().unwrap(), t, ia, ib)
    }

    #[test]
    fn secure_path_fraction_bounds() {
        let (g, t, _, _) = diamond_world();
        let empty = SecureSet::new(g.len());
        assert_eq!(
            secure_path_fraction(&g, &empty, TreePolicy::default(), &LowestAsnTieBreak),
            0.0
        );
        let mut all = SecureSet::new(g.len());
        for n in g.nodes() {
            all.set(n, true);
        }
        assert_eq!(
            secure_path_fraction(&g, &all, TreePolicy::default(), &LowestAsnTieBreak),
            1.0
        );
        let _ = t;
    }

    #[test]
    fn secure_path_fraction_tracks_f_squared() {
        use sbgp_asgraph::gen::{generate, GenParams};
        let g = generate(&GenParams::tiny(9)).graph;
        let mut state = SecureSet::new(g.len());
        for n in g.nodes().take(g.len() / 2) {
            state.set(n, true);
        }
        let f = state.count() as f64 / g.len() as f64;
        let frac = secure_path_fraction(&g, &state, TreePolicy::default(), &HashTieBreak);
        // Paper: fraction ≈ slightly below f² (both endpoints secure,
        // interior ASes mostly secure for short paths).
        assert!(frac <= f * f + 0.02, "frac {frac} vs f² {}", f * f);
        assert!(frac >= f * f * 0.2, "frac {frac} far below f² {}", f * f);
    }

    #[test]
    fn diamond_census_sees_the_diamond() {
        let (g, t, _, _) = diamond_world();
        // t has a 2-member tiebreak set toward stub s.
        assert_eq!(diamonds_for(&g, t, &LowestAsnTieBreak), 1);
    }

    #[test]
    fn adoption_by_degree_shapes() {
        let (g, t, _, _) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let result = Simulation::new(&g, &w, &tb, SimConfig::default()).run(&[t]);
        let (labels, series) = adoption_by_degree(&g, &result, &[10]);
        assert_eq!(labels, vec!["1-10".to_string(), "11+".to_string()]);
        assert_eq!(series.len(), result.rounds.len() + 1);
        // Final round: all three ISPs secure (degree ≤ 10 bucket has
        // ia/ib at degree 3, t at degree 2).
        let last = series.last().unwrap();
        assert!((last[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_works() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0]), 3.0);
        assert_eq!(median(vec![1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(vec![1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn projection_accuracy_near_one_on_diamond() {
        let (g, t, _, _) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let result = Simulation::new(&g, &w, &tb, SimConfig::default()).run(&[t]);
        for ratio in projection_accuracy(&result) {
            // In this tiny world at most one ISP moves per round, so
            // projection error stays small.
            assert!((0.7..=1.5).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn traces_normalized_to_start() {
        let (g, t, ia, _) = diamond_world();
        let w = Weights::uniform(&g);
        let tb = LowestAsnTieBreak;
        let result = Simulation::new(&g, &w, &tb, SimConfig::default()).run(&[t]);
        let trace = normalized_trace(&result, ia);
        assert_eq!(trace.len(), result.rounds.len());
        assert!(trace.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn mean_path_length_simple() {
        let (g, t, _, _) = diamond_world();
        // t: 1 hop to ia/ib, 2 hops to s/sa/sb → mean (1+1+2+2+2)/5.
        let m = mean_path_length(&g, t, &LowestAsnTieBreak);
        assert!((m - 1.6).abs() < 1e-12, "{m}");
    }

    #[test]
    fn transit_volume_positive_for_tier1() {
        let (g, t, _, _) = diamond_world();
        let w = Weights::uniform(&g);
        let v = transit_volume(&g, &w, t, &LowestAsnTieBreak);
        // t transits cross traffic between the two ISP subtrees.
        assert!(v > 0.0);
    }
}
