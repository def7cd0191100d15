//! The metric and workload names this benchmark defines.
//!
//! `BENCHMARK.json` at the repository root carries the same lists (a
//! self-test holds the two equal); every later claim about this repo's
//! speed quotes names from here.

use crate::json::Json;

/// The four workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = [
    "ska_dense",
    "sparse_snapshot",
    "major_cycle",
    "device_stream",
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before `--compare` calls it a regression.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the library waits for or pays; measured with the span
/// recorder and `idg-obs` off. The bounds are what the baseline host
/// resolves: its speed switches between two modes about 1.5× apart
/// every few seconds, so ten 20-s runs of one commit spread 6–10 %
/// (quartile distance over median) and up to 20 % across a mode shift.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("grid_mvis_per_s", "MVis/s", "higher", 0.25),
    e2e("degrid_mvis_per_s", "MVis/s", "higher", 0.25),
    e2e("time_to_image_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// One layer each (layer = crate name before the dot); measured in the
/// traced run. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 53] = [
    layer("telescope.simulate_s", "s", "lower"),
    layer("plan.create_s", "s", "lower"),
    layer("plan.subgrids", "count", "lower"),
    layer("plan.vis_per_subgrid", "count", "higher"),
    layer("plan.gridded_frac", "ratio", "higher"),
    layer("kernels.gridder_s", "s", "lower"),
    layer("kernels.degridder_s", "s", "lower"),
    layer("kernels.subgrid_fft_s", "s", "lower"),
    layer("kernels.subgrid_ifft_s", "s", "lower"),
    layer("kernels.adder_s", "s", "lower"),
    layer("kernels.splitter_s", "s", "lower"),
    layer("kernels.gridder_sincos", "count", "lower"),
    layer("kernels.gridder_fma", "count", "lower"),
    layer("kernels.gridder_ops_per_byte", "ops/B", "higher"),
    layer("kernels.gridder_gsincos_per_s", "G/s", "higher"),
    layer("kernels.degridder_gsincos_per_s", "G/s", "higher"),
    layer("math.sincos_gpairs_per_s", "G/s", "higher"),
    layer("kernels.gridder_sincos_ceiling_frac", "ratio", "higher"),
    layer("kernels.cache_hits", "count", "higher"),
    layer("kernels.cache_misses", "count", "lower"),
    layer("kernels.gridder_rel_err", "ratio", "lower"),
    layer("kernels.degridder_rel_err", "ratio", "lower"),
    layer("fft.grid_fft_s", "s", "lower"),
    layer("imaging.psf_s", "s", "lower"),
    layer("imaging.dirty_image_s", "s", "lower"),
    layer("imaging.clean_s", "s", "lower"),
    layer("imaging.model_grid_s", "s", "lower"),
    layer("imaging.clean_components", "count", "lower"),
    layer("imaging.self_s", "s", "lower"),
    layer("core.grid_pass_s", "s", "lower"),
    layer("core.degrid_pass_s", "s", "lower"),
    layer("core.layers_sum_frac", "ratio", "higher"),
    layer("core.grid_self_s", "s", "lower"),
    layer("core.degrid_self_s", "s", "lower"),
    layer("gpusim.grid_wall_s", "s", "lower"),
    layer("gpusim.degrid_wall_s", "s", "lower"),
    layer("gpusim.sim_overhead_x", "ratio", "lower"),
    layer("gpusim.fleet2_grid_wall_s", "s", "lower"),
    layer("gpusim.fleet_overhead_x", "ratio", "lower"),
    layer("gpusim.modeled_makespan_s", "s", "lower"),
    layer("gpusim.retries", "count", "lower"),
    layer("gpusim.fallback_jobs", "count", "lower"),
    layer("gpusim.redispatched_jobs", "count", "lower"),
    layer("stream.grid_wall_s", "s", "lower"),
    layer("stream.degrid_wall_s", "s", "lower"),
    layer("stream.overhead_x", "ratio", "lower"),
    layer("stream.chunks", "count", "lower"),
    layer("stream.backpressure_waits", "count", "lower"),
    layer("stream.failed_chunks", "count", "lower"),
    layer("rayon.parallel_speedup", "ratio", "higher"),
    layer("obs.on_overhead_x", "ratio", "lower"),
    layer("obs.sincos_measured", "count", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

/// Values measured in one run, keyed by metric name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "{name} is not a metric this benchmark defines"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of a result line: every metric of `defs`
    /// with value and unit, in definition order. A metric of `defs`
    /// that was not set reads 0 — a layer the workload never entered.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::obj(defs.iter().map(|d| {
            (
                d.name,
                Json::obj([
                    ("value", Json::Num(self.get(d.name).unwrap_or(0.0))),
                    ("unit", Json::Str(d.unit.into())),
                ]),
            )
        }))
    }
}

/// `--list`: every name this benchmark defines, one per line.
pub fn list() -> String {
    let mut out = String::new();
    for w in WORKLOADS {
        out.push_str(&format!("workload {w}\n"));
    }
    for d in &END_TO_END {
        let bound = d.bound.unwrap_or(0.0);
        out.push_str(&format!(
            "end_to_end {} {} {} {bound}\n",
            d.name, d.unit, d.better
        ));
    }
    for d in &PER_LAYER {
        out.push_str(&format!("per_layer {} {} {}\n", d.name, d.unit, d.better));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|d| d.name));
        names.extend(PER_LAYER.iter().map(|d| d.name));
        for n in &names {
            assert!(is_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(matches!(d.better, "lower" | "higher"));
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
        }
    }

    /// `--list` and `BENCHMARK.json` name the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn list_equals_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |entry: &Json, key: &str| entry.get(key).unwrap().as_str().unwrap().to_string();
        let mut expected = String::new();
        for w in doc.get("workloads").unwrap().as_array().unwrap() {
            expected.push_str(&format!("workload {}\n", field(w, "name")));
            assert!(field(w, "why").len() <= 200);
        }
        for m in doc.get("end_to_end").unwrap().as_array().unwrap() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            expected.push_str(&format!(
                "end_to_end {} {} {} {bound}\n",
                field(m, "name"),
                field(m, "unit"),
                field(m, "better")
            ));
        }
        for m in doc.get("per_layer").unwrap().as_array().unwrap() {
            expected.push_str(&format!(
                "per_layer {} {} {}\n",
                field(m, "name"),
                field(m, "unit"),
                field(m, "better")
            ));
        }
        assert_eq!(list(), expected);
        assert_eq!(
            doc.get("paths").unwrap().as_array().unwrap(),
            [Json::Str("benchmark".into())]
        );
    }

    #[test]
    fn unset_metrics_read_zero_and_every_definition_is_emitted() {
        let mut values = Values::default();
        values.set("setup_s", 1.25);
        let json = values.to_json(&END_TO_END);
        let pairs = json.as_object().unwrap();
        assert_eq!(pairs.len(), END_TO_END.len());
        assert_eq!(
            json.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(
            json.get("peak_rss_mb")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
