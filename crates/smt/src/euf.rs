//! Congruence closure for EUF with explanation generation
//! (Nieuwenhuis–Oliveras proof forest).
//!
//! The closure is rebuilt for each theory check (lazy SMT), so no
//! backtracking support is needed. Nodes are either *leaves* (variables or
//! distinct integer constants) or *applications* of an uninterpreted
//! function symbol to other nodes. Equalities and disequalities are
//! asserted with opaque `u32` reason tags; conflicts report the set of
//! reason tags responsible.

use std::collections::HashMap;

/// A node in the E-graph.
pub type Node = u32;

/// Opaque tag identifying why an equality/disequality was asserted
/// (typically an index into the asserted-literal list).
pub type ReasonTag = u32;

/// A theory conflict: the conjunction of the tagged assertions is
/// unsatisfiable in EUF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EufConflict {
    /// The responsible reason tags (deduplicated).
    pub reasons: Vec<ReasonTag>,
}

#[derive(Debug, Clone)]
enum EdgeLabel {
    /// Merged because of an asserted equality.
    Asserted(ReasonTag),
    /// Merged by congruence of the two application nodes.
    Congruence(Node, Node),
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf {
        /// Kept for diagnostics; the constant is also mirrored into
        /// `class_const` at creation, which is what the closure consults.
        #[allow(dead_code)]
        distinct_const: Option<i64>,
    },
    App {
        func: u32,
        args: Vec<Node>,
    },
}

/// The congruence-closure engine.
#[derive(Debug, Default)]
pub struct Euf {
    kinds: Vec<NodeKind>,
    /// Union-find representative (path-compressed separately from the
    /// proof forest).
    repr: Vec<Node>,
    /// Class member lists (valid for representatives).
    members: Vec<Vec<Node>>,
    /// Distinct constant attached to the class, if any (valid for reprs).
    class_const: Vec<Option<(i64, Node)>>,
    /// Application nodes to re-check when this class's repr changes.
    use_list: Vec<Vec<Node>>,
    /// Congruence signature table.
    sigs: HashMap<(u32, Vec<Node>), Node>,
    /// Proof forest: parent link and edge label.
    proof_parent: Vec<Option<(Node, EdgeLabel)>>,
    /// Asserted disequalities: (a, b, reason).
    diseqs: Vec<(Node, Node, ReasonTag)>,
    /// Hash-consing of applications.
    app_table: HashMap<(u32, Vec<Node>), Node>,
}

impl Euf {
    /// Creates an empty E-graph.
    pub fn new() -> Euf {
        Euf::default()
    }

    fn push_node(&mut self, kind: NodeKind) -> Node {
        let id = self.kinds.len() as Node;
        self.kinds.push(kind);
        self.repr.push(id);
        self.members.push(vec![id]);
        self.class_const.push(None);
        self.use_list.push(Vec::new());
        self.proof_parent.push(None);
        id
    }

    /// Adds a leaf node. `distinct_const` marks the node as the integer
    /// constant `c`: merging classes holding different constants conflicts.
    pub fn add_leaf(&mut self, distinct_const: Option<i64>) -> Node {
        let n = self.push_node(NodeKind::Leaf { distinct_const });
        if let Some(c) = distinct_const {
            self.class_const[n as usize] = Some((c, n));
        }
        n
    }

    /// Adds (or retrieves) an application node `func(args…)`. Congruent
    /// syntactic duplicates are shared.
    pub fn add_app(&mut self, func: u32, args: Vec<Node>) -> Node {
        if let Some(&n) = self.app_table.get(&(func, args.clone())) {
            return n;
        }
        let n = self.push_node(NodeKind::App {
            func,
            args: args.clone(),
        });
        self.app_table.insert((func, args.clone()), n);
        // Register in use-lists and the signature table; merge immediately
        // if a congruent node already exists.
        let sig = self.signature(n);
        for a in &sig.1 {
            self.use_list[*a as usize].push(n);
        }
        if let Some(&existing) = self.sigs.get(&sig) {
            // Cannot conflict: fresh node carries no constant.
            let _ = self.merge_nodes(n, existing, EdgeLabel::Congruence(n, existing));
        } else {
            self.sigs.insert(sig, n);
        }
        n
    }

    fn find(&self, mut n: Node) -> Node {
        while self.repr[n as usize] != n {
            n = self.repr[n as usize];
        }
        n
    }

    /// True if the two nodes are currently in the same class.
    pub fn are_equal(&self, a: Node, b: Node) -> bool {
        self.find(a) == self.find(b)
    }

    fn signature(&self, n: Node) -> (u32, Vec<Node>) {
        match &self.kinds[n as usize] {
            NodeKind::App { func, args } => (*func, args.iter().map(|&a| self.find(a)).collect()),
            NodeKind::Leaf { .. } => unreachable!("signature of a leaf"),
        }
    }

    /// Asserts `a = b`.
    ///
    /// # Errors
    ///
    /// Returns the conflicting reason set if the equality contradicts a
    /// previously asserted disequality or distinct constants.
    pub fn assert_eq(&mut self, a: Node, b: Node, reason: ReasonTag) -> Result<(), EufConflict> {
        self.merge_nodes(a, b, EdgeLabel::Asserted(reason))
    }

    /// Asserts `a ≠ b`.
    ///
    /// # Errors
    ///
    /// Returns the conflicting reason set if the two nodes are already
    /// equal.
    pub fn assert_diseq(&mut self, a: Node, b: Node, reason: ReasonTag) -> Result<(), EufConflict> {
        if self.find(a) == self.find(b) {
            let mut reasons = self.explain(a, b);
            reasons.push(reason);
            reasons.sort_unstable();
            reasons.dedup();
            return Err(EufConflict { reasons });
        }
        self.diseqs.push((a, b, reason));
        Ok(())
    }

    fn merge_nodes(&mut self, a: Node, b: Node, label: EdgeLabel) -> Result<(), EufConflict> {
        let mut pending = vec![(a, b, label)];
        while let Some((x, y, label)) = pending.pop() {
            let rx = self.find(x);
            let ry = self.find(y);
            if rx == ry {
                continue;
            }
            // Check distinct constants.
            if let (Some((cx, nx)), Some((cy, ny))) =
                (self.class_const[rx as usize], self.class_const[ry as usize])
            {
                if cx != cy {
                    // Record the offending edge first so the explanation
                    // can traverse it.
                    self.proof_insert(x, y, label);
                    let mut reasons = self.explain(nx, ny);
                    reasons.sort_unstable();
                    reasons.dedup();
                    return Err(EufConflict { reasons });
                }
            }
            // Union by size: merge smaller class (rs) into larger (rl).
            let (rs, rl) = if self.members[rx as usize].len() <= self.members[ry as usize].len() {
                (rx, ry)
            } else {
                (ry, rx)
            };
            self.proof_insert(x, y, label);

            // Re-parent members.
            let moved = std::mem::take(&mut self.members[rs as usize]);
            for &m in &moved {
                self.repr[m as usize] = rl;
            }
            self.members[rl as usize].extend(moved);
            if self.class_const[rl as usize].is_none() {
                self.class_const[rl as usize] = self.class_const[rs as usize];
            }

            // Congruence: re-signature all applications that used rs.
            let uses = std::mem::take(&mut self.use_list[rs as usize]);
            for &app in &uses {
                let sig = self.signature(app);
                if let Some(&other) = self.sigs.get(&sig) {
                    if self.find(other) != self.find(app) {
                        pending.push((app, other, EdgeLabel::Congruence(app, other)));
                    }
                } else {
                    self.sigs.insert(sig, app);
                }
            }
            self.use_list[rl as usize].extend(uses);
        }
        Ok(())
    }

    /// Inserts edge x—y into the proof forest by reversing the path from x
    /// to its root, then pointing x at y.
    fn proof_insert(&mut self, x: Node, y: Node, label: EdgeLabel) {
        // Reverse path from x to root of x's tree.
        let mut cur = x;
        let mut prev: Option<(Node, EdgeLabel)> = None;
        loop {
            let next = self.proof_parent[cur as usize].clone();
            self.proof_parent[cur as usize] = prev;
            match next {
                None => break,
                Some((p, lbl)) => {
                    prev = Some((cur, lbl));
                    cur = p;
                }
            }
        }
        self.proof_parent[x as usize] = Some((y, label));
    }

    /// Checks all recorded disequalities; returns a conflict if any pair
    /// has become equal. Call after a batch of `assert_eq`s.
    pub fn check_diseqs(&mut self) -> Result<(), EufConflict> {
        for i in 0..self.diseqs.len() {
            let (a, b, reason) = self.diseqs[i];
            if self.find(a) == self.find(b) {
                let mut reasons = self.explain(a, b);
                reasons.push(reason);
                reasons.sort_unstable();
                reasons.dedup();
                return Err(EufConflict { reasons });
            }
        }
        Ok(())
    }

    /// Explains why `a` and `b` are equal: returns the set of reason tags
    /// of asserted equalities sufficient to derive `a = b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not connected in the proof forest (they
    /// must be equal, or about to conflict on the just-inserted edge).
    pub fn explain(&self, a: Node, b: Node) -> Vec<ReasonTag> {
        let mut reasons = Vec::new();
        let mut pending = vec![(a, b)];
        let mut guard = 0usize;
        while let Some((x, y)) = pending.pop() {
            guard += 1;
            assert!(
                guard < 1_000_000,
                "explanation diverged (internal invariant violated)"
            );
            if x == y {
                continue;
            }
            // Walk proof-forest paths to the nearest common ancestor.
            let px = self.path_to_root(x);
            let py = self.path_to_root(y);
            // Find common ancestor: the last common suffix element.
            let mut ix = px.len();
            let mut iy = py.len();
            while ix > 0 && iy > 0 && px[ix - 1] == py[iy - 1] {
                ix -= 1;
                iy -= 1;
            }
            // px[0..=ix] / py[0..=iy] are the distinct prefixes; px[ix] (==
            // py[iy] when both in range) is the common ancestor.
            let explain_path = |path: &[Node],
                                upto: usize,
                                pending: &mut Vec<(Node, Node)>,
                                reasons: &mut Vec<ReasonTag>,
                                this: &Euf| {
                for &n in &path[..upto] {
                    match &this.proof_parent[n as usize] {
                        Some((_, EdgeLabel::Asserted(r))) => reasons.push(*r),
                        Some((_, EdgeLabel::Congruence(u, v))) => {
                            let (fu, au) = match &this.kinds[*u as usize] {
                                NodeKind::App { func, args } => (*func, args.clone()),
                                NodeKind::Leaf { .. } => unreachable!("congruence of leaf"),
                            };
                            let (fv, av) = match &this.kinds[*v as usize] {
                                NodeKind::App { func, args } => (*func, args.clone()),
                                NodeKind::Leaf { .. } => unreachable!("congruence of leaf"),
                            };
                            debug_assert_eq!(fu, fv);
                            for (x2, y2) in au.into_iter().zip(av) {
                                pending.push((x2, y2));
                            }
                        }
                        None => unreachable!("path ends before ancestor"),
                    }
                }
            };
            explain_path(&px, ix, &mut pending, &mut reasons, self);
            explain_path(&py, iy, &mut pending, &mut reasons, self);
        }
        reasons.sort_unstable();
        reasons.dedup();
        reasons
    }

    fn path_to_root(&self, mut n: Node) -> Vec<Node> {
        let mut path = vec![n];
        while let Some((p, _)) = &self.proof_parent[n as usize] {
            n = *p;
            path.push(n);
        }
        path
    }

    /// The representative of a node's class.
    pub fn representative(&self, n: Node) -> Node {
        self.find(n)
    }

    /// The distinct constant attached to a node's class, if any.
    pub fn class_constant(&self, n: Node) -> Option<i64> {
        self.class_const[self.find(n) as usize].map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitivity_and_explanation() {
        let mut e = Euf::new();
        let a = e.add_leaf(None);
        let b = e.add_leaf(None);
        let c = e.add_leaf(None);
        e.assert_eq(a, b, 10).expect("ok");
        e.assert_eq(b, c, 20).expect("ok");
        assert!(e.are_equal(a, c));
        assert_eq!(e.explain(a, c), vec![10, 20]);
    }

    #[test]
    fn congruence_propagates() {
        let mut e = Euf::new();
        let x = e.add_leaf(None);
        let y = e.add_leaf(None);
        let fx = e.add_app(0, vec![x]);
        let fy = e.add_app(0, vec![y]);
        assert!(!e.are_equal(fx, fy));
        e.assert_eq(x, y, 1).expect("ok");
        assert!(e.are_equal(fx, fy));
        assert_eq!(e.explain(fx, fy), vec![1]);
    }

    #[test]
    fn nested_congruence_explanation() {
        let mut e = Euf::new();
        let x = e.add_leaf(None);
        let y = e.add_leaf(None);
        let fx = e.add_app(0, vec![x]);
        let fy = e.add_app(0, vec![y]);
        let gfx = e.add_app(1, vec![fx]);
        let gfy = e.add_app(1, vec![fy]);
        e.assert_eq(x, y, 7).expect("ok");
        assert!(e.are_equal(gfx, gfy));
        assert_eq!(e.explain(gfx, gfy), vec![7]);
    }

    #[test]
    fn diseq_conflict_reports_reasons() {
        let mut e = Euf::new();
        let a = e.add_leaf(None);
        let b = e.add_leaf(None);
        let c = e.add_leaf(None);
        e.assert_diseq(a, c, 99).expect("ok");
        e.assert_eq(a, b, 1).expect("ok");
        e.assert_eq(b, c, 2).expect("ok");
        let err = e.check_diseqs().unwrap_err();
        assert_eq!(err.reasons, vec![1, 2, 99]);
    }

    #[test]
    fn distinct_constants_conflict() {
        let mut e = Euf::new();
        let one = e.add_leaf(Some(1));
        let two = e.add_leaf(Some(2));
        let x = e.add_leaf(None);
        e.assert_eq(x, one, 3).expect("ok");
        let err = e.assert_eq(x, two, 4).unwrap_err();
        assert_eq!(err.reasons, vec![3, 4]);
    }

    #[test]
    fn same_constants_merge_fine() {
        let mut e = Euf::new();
        let c1 = e.add_leaf(Some(5));
        let c2 = e.add_leaf(Some(5));
        e.assert_eq(c1, c2, 0).expect("no conflict");
    }

    #[test]
    fn hash_consing_of_apps() {
        let mut e = Euf::new();
        let x = e.add_leaf(None);
        let f1 = e.add_app(0, vec![x]);
        let f2 = e.add_app(0, vec![x]);
        assert_eq!(f1, f2);
    }

    #[test]
    fn congruence_after_app_creation_order() {
        // Create the apps *after* the equality is asserted.
        let mut e = Euf::new();
        let x = e.add_leaf(None);
        let y = e.add_leaf(None);
        e.assert_eq(x, y, 1).expect("ok");
        let fx = e.add_app(0, vec![x]);
        let fy = e.add_app(0, vec![y]);
        assert!(e.are_equal(fx, fy));
        assert_eq!(e.explain(fx, fy), vec![1]);
    }

    #[test]
    fn binary_congruence_needs_both_args() {
        let mut e = Euf::new();
        let a = e.add_leaf(None);
        let b = e.add_leaf(None);
        let c = e.add_leaf(None);
        let d = e.add_leaf(None);
        let f1 = e.add_app(0, vec![a, c]);
        let f2 = e.add_app(0, vec![b, d]);
        e.assert_eq(a, b, 1).expect("ok");
        assert!(!e.are_equal(f1, f2));
        e.assert_eq(c, d, 2).expect("ok");
        assert!(e.are_equal(f1, f2));
        assert_eq!(e.explain(f1, f2), vec![1, 2]);
    }

    /// Naive quadratic closure as an oracle.
    fn naive_closure(
        n_leaves: usize,
        apps: &[(u32, Vec<usize>)],
        eqs: &[(usize, usize)],
    ) -> Vec<Vec<bool>> {
        let n = n_leaves + apps.len();
        let mut eq = vec![vec![false; n]; n];
        for (i, row) in eq.iter_mut().enumerate() {
            row[i] = true;
        }
        for &(a, b) in eqs {
            eq[a][b] = true;
            eq[b][a] = true;
        }
        loop {
            let mut changed = false;
            // transitivity
            #[allow(clippy::needless_range_loop)] // triple-index closure
            for i in 0..n {
                for j in 0..n {
                    if !eq[i][j] {
                        continue;
                    }
                    for k in 0..n {
                        if eq[j][k] && !eq[i][k] {
                            eq[i][k] = true;
                            eq[k][i] = true;
                            changed = true;
                        }
                    }
                }
            }
            // congruence
            for (i, (fi, ai)) in apps.iter().enumerate() {
                for (j, (fj, aj)) in apps.iter().enumerate() {
                    if fi == fj
                        && ai.len() == aj.len()
                        && ai.iter().zip(aj).all(|(&x, &y)| eq[x][y])
                        && !eq[n_leaves + i][n_leaves + j]
                    {
                        eq[n_leaves + i][n_leaves + j] = true;
                        eq[n_leaves + j][n_leaves + i] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                return eq;
            }
        }
    }

    #[test]
    fn matches_naive_closure_on_random_instances() {
        // Deterministic pseudo-random instances.
        let mut seed = 0xdeadbeefu64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let n_leaves = 4;
            let n_apps = 4;
            let mut apps: Vec<(u32, Vec<usize>)> = Vec::new();
            for _ in 0..n_apps {
                let f = (rng() % 2) as u32;
                let arg = (rng() % (n_leaves as u64)) as usize;
                apps.push((f, vec![arg]));
            }
            let mut eqs = Vec::new();
            for _ in 0..3 {
                let total = n_leaves + n_apps;
                let a = (rng() % total as u64) as usize;
                let b = (rng() % total as u64) as usize;
                eqs.push((a, b));
            }
            // Build with Euf. Note add_app may alias duplicate signatures,
            // so keep a node map.
            let mut e = Euf::new();
            let leaf_nodes: Vec<Node> = (0..n_leaves).map(|_| e.add_leaf(None)).collect();
            let mut all_nodes = leaf_nodes.clone();
            for (f, args) in &apps {
                let arg_nodes: Vec<Node> = args.iter().map(|&i| all_nodes[i]).collect();
                let n = e.add_app(*f, arg_nodes);
                all_nodes.push(n);
            }
            for (i, &(a, b)) in eqs.iter().enumerate() {
                let _ = e.assert_eq(all_nodes[a], all_nodes[b], i as u32);
            }
            let oracle = naive_closure(n_leaves, &apps, &eqs);
            let total = n_leaves + n_apps;
            for i in 0..total {
                for j in 0..total {
                    assert_eq!(
                        e.are_equal(all_nodes[i], all_nodes[j]),
                        oracle[i][j],
                        "mismatch on pair ({i},{j}); apps={apps:?} eqs={eqs:?}"
                    );
                }
            }
        }
    }
}
