//! Correctness gates: untimed, run on a fixed query sample, and fatal —
//! a run whose answers are wrong reports `correct: false` and exits
//! non-zero, whatever it measured.

use les3_baselines::{BruteForce, SetSimSearch};
use les3_core::index::SearchResult;
use les3_core::{Jaccard, Similarity};
use les3_data::{SetDatabase, SetId, TokenId};

pub type Hits = [(SetId, f64)];

/// The brute-force reference: every similarity, computed one by one.
pub struct Oracle {
    brute: BruteForce<Jaccard>,
}

impl Oracle {
    pub fn new(db: &SetDatabase) -> Self {
        Self {
            brute: BruteForce::new(db.clone(), Jaccard),
        }
    }

    /// The true top-`k` among the sets `keep` admits, best first, ties
    /// by id.
    fn top_k(
        &self,
        query: &[TokenId],
        k: usize,
        keep: impl Fn(SetId) -> bool,
    ) -> Vec<(SetId, f64)> {
        let mut ranked = self.brute.range(query, 0.0).hits;
        ranked.retain(|&(id, _)| keep(id));
        ranked.truncate(k);
        ranked
    }

    /// Checks an exact kNN answer over the sets `keep` admits: the same
    /// similarities position by position, the same ids above the k-th
    /// similarity, and at the k-th similarity (where any of the tied sets
    /// is a right answer) ids that are distinct, admitted and carry
    /// exactly that similarity.
    pub fn check_knn(
        &self,
        query: &[TokenId],
        k: usize,
        keep: impl Fn(SetId) -> bool,
        got: &Hits,
    ) -> Result<(), String> {
        let want = self.top_k(query, k, &keep);
        if got.len() != want.len() {
            return Err(format!("{} hits, expected {}", got.len(), want.len()));
        }
        let kth = want.last().map(|h| h.1);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            if g.1.to_bits() != w.1.to_bits() {
                return Err(format!("hit {i}: similarity {} != {}", g.1, w.1));
            }
            if Some(w.1) != kth && g.0 != w.0 {
                return Err(format!("hit {i}: id {} != {}", g.0, w.0));
            }
            if !keep(g.0) {
                return Err(format!("hit {i}: id {} is filtered out", g.0));
            }
        }
        self.check_similarities(query, got)?;
        let mut ids: Vec<SetId> = got.iter().map(|h| h.0).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != got.len() {
            return Err("duplicate ids among the hits".to_string());
        }
        Ok(())
    }

    /// Checks an exact range answer over the sets `keep` admits: exactly
    /// the brute-force hits.
    pub fn check_range(
        &self,
        query: &[TokenId],
        delta: f64,
        keep: impl Fn(SetId) -> bool,
        got: &Hits,
    ) -> Result<(), String> {
        let mut want = self.brute.range(query, delta).hits;
        want.retain(|&(id, _)| keep(id));
        if same_hits(got, &want) {
            Ok(())
        } else {
            Err(format!(
                "{} range hits differ from the {} expected",
                got.len(),
                want.len()
            ))
        }
    }

    /// Checks that every hit carries its exact similarity (what an
    /// approximate answer still owes).
    pub fn check_similarities(&self, query: &[TokenId], got: &Hits) -> Result<(), String> {
        for &(id, sim) in got {
            let exact = Jaccard.eval(query, self.brute.db().set(id));
            if exact.to_bits() != sim.to_bits() {
                return Err(format!(
                    "set {id}: similarity {sim} is not the exact {exact}"
                ));
            }
        }
        Ok(())
    }

    /// Recall@`k` of an approximate answer whose hits carry exact
    /// similarities: the share of the true top-`k` it found, where any
    /// set at least as similar as the true k-th counts as one of them (a
    /// tie at the boundary has several right answers).
    pub fn recall(&self, query: &[TokenId], k: usize, got: &Hits) -> f64 {
        let want = self.top_k(query, k, |_| true);
        let Some(&(_, kth)) = want.last() else {
            return 1.0;
        };
        let found = got.iter().filter(|hit| hit.1 >= kth).count();
        found.min(want.len()) as f64 / want.len() as f64
    }
}

/// Same ids and bit-identical similarities, in the same order.
pub fn same_hits(a: &Hits, b: &Hits) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Bit-for-bit equality of two answers: hits and work counters.
pub fn same_result(a: &SearchResult, b: &SearchResult) -> bool {
    same_hits(&a.hits, &b.hits) && a.stats == b.stats
}

/// Collects gate failures; the first few are printed.
#[derive(Debug, Default)]
pub struct Gate {
    pub checked: usize,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.checked += 1;
        if let Err(why) = outcome {
            self.failures.push(format!("{what}: {why}"));
        }
    }

    pub fn require(&mut self, what: &str, holds: bool) {
        self.record(
            what,
            if holds {
                Ok(())
            } else {
                Err("does not hold".to_string())
            },
        );
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> SetDatabase {
        SetDatabase::from_sets(vec![
            vec![0u32, 1, 2, 3],
            vec![0, 1, 2, 4],
            vec![0, 1, 2, 5],
            vec![7, 8, 9],
        ])
    }

    #[test]
    fn knn_gate_accepts_any_set_of_the_boundary_tie_but_no_wrong_similarity() {
        let oracle = Oracle::new(&db());
        let q = [0u32, 1, 2];
        // Sets 0, 1, 2 all score 3/4; with k = 2 any two of them are right.
        assert!(oracle
            .check_knn(&q, 2, |_| true, &[(0, 0.75), (1, 0.75)])
            .is_ok());
        assert!(oracle
            .check_knn(&q, 2, |_| true, &[(1, 0.75), (2, 0.75)])
            .is_ok());
        assert!(oracle
            .check_knn(&q, 2, |_| true, &[(1, 0.75), (1, 0.75)])
            .is_err());
        assert!(oracle
            .check_knn(&q, 2, |_| true, &[(0, 0.75), (3, 0.75)])
            .is_err());
        assert!(oracle.check_knn(&q, 2, |_| true, &[(0, 0.75)]).is_err());
        // A filter that drops set 0 must not see it in the answer.
        assert!(oracle
            .check_knn(&q, 2, |id| id != 0, &[(1, 0.75), (2, 0.75)])
            .is_ok());
        assert!(oracle
            .check_knn(&q, 2, |id| id != 0, &[(0, 0.75), (1, 0.75)])
            .is_err());
    }

    #[test]
    fn range_gate_and_recall() {
        let oracle = Oracle::new(&db());
        let q = [0u32, 1, 2];
        let all = |_| true;
        assert!(oracle
            .check_range(&q, 0.7, all, &[(0, 0.75), (1, 0.75), (2, 0.75)])
            .is_ok());
        assert!(oracle
            .check_range(&q, 0.7, all, &[(0, 0.75), (1, 0.75)])
            .is_err());
        assert!(oracle
            .check_range(&q, 0.7, |id| id != 2, &[(0, 0.75), (1, 0.75)])
            .is_ok());
        assert_eq!(oracle.recall(&q, 2, &[(2, 0.75)]), 0.5);
        assert_eq!(
            oracle.recall(&q, 4, &[(0, 0.75), (1, 0.75), (2, 0.75), (3, 0.0)]),
            1.0
        );
        // Missing the best hit costs one hit, not every position after it.
        assert_eq!(
            oracle.recall(&q, 4, &[(1, 0.75), (2, 0.75), (3, 0.0)]),
            0.75
        );
    }

    #[test]
    fn gate_collects_failures() {
        let mut gate = Gate::default();
        gate.require("fine", true);
        assert!(gate.passed());
        gate.record("broken", Err("why".to_string()));
        assert!(!gate.passed());
        assert_eq!((gate.checked, gate.failures.len()), (2, 1));
    }
}
