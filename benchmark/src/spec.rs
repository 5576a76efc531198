//! The benchmark's definition, read from the repository's `BENCHMARK.json`
//! (compiled in, so the binary and the file cannot disagree): workloads,
//! metric names, units, directions and regression bounds.

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            field(key)?
                .as_arr()
                .ok_or_else(|| format!("`{key}` is not a list"))?
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{key}: metric without `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: s("name")?,
                        unit: s("unit")?,
                        higher_is_better: match s("better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("{key}: bad direction `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = field("workloads")?
            .as_arr()
            .ok_or("`workloads` is not a list")?
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).map(str::to_string);
                s("name")
                    .zip(s("why"))
                    .ok_or_else(|| "workload without name or why".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: field("run_seconds")?
                .as_f64()
                .ok_or("`run_seconds` is not a number")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Every metric, end-to-end first.
    pub fn metrics(&self) -> impl Iterator<Item = &MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_repository_spec_parses_and_names_are_unique() {
        let spec = Spec::load();
        assert!(spec.run_seconds >= 1.0);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = spec
            .metrics()
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(|(w, _)| w.as_str()))
            .collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len, "a name is used twice");
    }
}
