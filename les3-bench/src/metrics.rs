//! The metrics the benchmark declares — the same names and units as
//! `BENCHMARK.json` (the smoke test holds the two together) — and the
//! collector a run fills in.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric. Every workload reports
/// all of them, with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("qps", "1/s"),
    ("index_bytes", "B"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, `<module>.<name>`. A
/// traced run reports all of them; a layer the workload does not enter
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("partition.l2p_s", "s"),
    ("partition.groups", "count"),
    ("partition.candidates_per_query", "count"),
    ("partition.pruning_efficiency", "ratio"),
    ("tgm.build_ms", "ms"),
    ("tgm.bytes", "B"),
    ("tgm.count_us_p50", "us"),
    ("tgm.bits_per_query", "count"),
    ("index.build_ms", "ms"),
    ("index.bounds_us_p50", "us"),
    ("index.order_us_p50", "us"),
    ("index.search_us_p50", "us"),
    ("index.verify_us_p50", "us"),
    ("index.groups_verified_per_query", "count"),
    ("index.groups_pruned_per_query", "count"),
    ("index.sims_per_query", "count"),
    ("index.hits_per_query", "count"),
    ("index.early_exit_share", "ratio"),
    ("index.size_skip_share", "ratio"),
    ("par.auto_us_p50", "us"),
    ("par.auto_vs_seq_ratio", "ratio"),
    ("par.w2_us_p50", "us"),
    ("par.w2_vs_seq_ratio", "ratio"),
    ("batch.knn_us_per_query", "us"),
    ("shard.build_ms", "ms"),
    ("shard.knn_us_p50", "us"),
    ("shard.vs_flat_ratio", "ratio"),
    ("serve.direct_c2_us_p50", "us"),
    ("serve.front_c1_us_p50", "us"),
    ("serve.front_c2_us_p50", "us"),
    ("serve.front_tax_us", "us"),
    ("serve.submit_us_p50", "us"),
    ("serve.open_p50_us", "us"),
    ("serve.open_p99_us", "us"),
    ("serve.ok", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.late", "count"),
    ("serve.in_flight_max", "count"),
    ("serve.useful_work_share", "ratio"),
    ("serve.over_goodput_qps", "1/s"),
    ("serve.over_ok", "count"),
    ("serve.over_shed", "count"),
    ("serve.over_expired", "count"),
    ("serve.over_late", "count"),
    ("serve.over_useful_work_share", "ratio"),
    ("net.http_c2_us_p50", "us"),
    ("net.http_tax_us", "us"),
    ("net.parse_head_us_p50", "us"),
    ("net.decode_knn_us_p50", "us"),
    ("net.encode_result_us_p50", "us"),
    ("net.request_bytes_mean", "B"),
    ("net.response_bytes_mean", "B"),
    ("net.status_200", "count"),
    ("net.status_other", "count"),
    ("metadata.build_ms", "ms"),
    ("metadata.mask_us_p50", "us"),
    ("metadata.search_us_p50", "us"),
    ("metadata.selectivity", "ratio"),
    ("metadata.mask_groups_share", "ratio"),
    ("approx.sidecar_build_ms", "ms"),
    ("approx.sidecar_bytes", "B"),
    ("approx.candidates_us_p50", "us"),
    ("approx.mask_us_p50", "us"),
    ("approx.candidates_per_query", "count"),
    ("approx.prefilter_us_p50", "us"),
    ("approx.exact_us_p50", "us"),
    ("approx.vs_exact_ratio", "ratio"),
    ("approx.recall", "ratio"),
    ("approx.recall_est", "ratio"),
    ("update.insert_us_p50", "us"),
    ("delete.delete_us_p50", "us"),
    ("persist.create_ms", "ms"),
    ("persist.insert_us_p50", "us"),
    ("persist.wal_append_us_p50", "us"),
    ("persist.insert_fsync_us_p50", "us"),
    ("persist.fsync_us_p50", "us"),
    ("persist.delete_us_p50", "us"),
    ("persist.knn_us_p50", "us"),
    ("persist.range_us_p50", "us"),
    ("persist.checkpoint_ms_p50", "ms"),
    ("persist.checkpoints", "count"),
    ("persist.wal_bytes", "B"),
    ("persist.segment_bytes", "B"),
    ("persist.disk_bytes_per_user_byte", "ratio"),
    ("persist.replayed_records", "count"),
    ("persist.recover_ms", "ms"),
    ("gen.offered_qps", "1/s"),
    ("gen.lag_us_p99", "us"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
];

/// The unit a metric is declared with, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// The values one run measured, by declared name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records a value.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a non-finite value: both are
    /// harness bugs that must not reach a result file.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, value, unit)` of every declared metric of the run's mode,
    /// in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if an untraced run left an end-to-end metric unset or at
    /// zero — every workload reports every one of them.
    pub fn report(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                assert!(
                    trace || value > 0.0,
                    "end-to-end metric {name} not measured"
                );
                (name, value, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn traced_report_defaults_unentered_layers_to_zero() {
        let mut m = Metrics::default();
        m.set("tgm.bytes", 12.0);
        let report = m.report(true);
        assert_eq!(report.len(), PER_LAYER.len());
        assert!(report.contains(&("tgm.bytes", 12.0, "B")));
        assert!(report.contains(&("net.status_200", 0.0, "count")));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_names_are_rejected() {
        Metrics::default().set("tgm.typo", 1.0);
    }
}
