//! What a run prints: its metrics, the host that measured them, and a
//! digest of the simulated statistics.

use wilis::ScenarioResult;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The machine and build a number came from, as one JSON object.
pub fn host_block() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<&str> = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.1", cfg!(target_feature = "sse4.1")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"available_parallelism\":{cores},\"arch\":\"{}\",\"os\":\"{}\",\"target_features\":[{}],\"profile\":\"{profile}\"}}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// The process's peak resident set (`VmHWM`) in MB, where the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A 64-bit FNV-1a digest of every simulated statistic in `results`
/// (their `Debug` form prints each float's exact value), so two builds
/// can be shown to simulate identically.
pub fn digest(results: &[ScenarioResult]) -> u64 {
    format!("{results:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite figure is reported
            // as 0 and the run is already marked incorrect by the caller.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_json(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn digest_sees_every_statistic() {
        let a = ScenarioResult {
            scenario: 0,
            label: "x".into(),
            packets: 1,
            packet_errors: 0,
            bits: 8,
            bit_errors: 0,
            hint_bins: Vec::new(),
            predicted_pber_sum: 0.25,
            packet_stats: Vec::new(),
            link: None,
            cell: None,
        };
        let mut b = a.clone();
        b.predicted_pber_sum = f64::from_bits(0.25f64.to_bits() + 1);
        let same = a.clone();
        assert_eq!(
            digest(std::slice::from_ref(&a)),
            digest(std::slice::from_ref(&same))
        );
        assert_ne!(digest(&[a]), digest(&[b]));
    }
}
