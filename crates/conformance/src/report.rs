//! The `mpise-difftest/v1` JSON artifact.
//!
//! One object per gate run, validated by `obscheck` and uploaded from
//! CI like the bench and load artifacts:
//!
//! ```json
//! {
//!   "schema": "mpise-difftest/v1",
//!   "date": "2026-08-07",
//!   "provenance": { "git_commit": "...", ... },
//!   "modes": {
//!     "isa_fuzz": { "programs": 100000, "exts": 3, "failures": [] },
//!     "kernel_difftest": { "combos": 32, "cases": 1234, "failures": [] },
//!     "kat_corpus": { "kat_vectors": 14, "kat_backends": 2,
//!                     "corpus_files": 7, "failures": [] }
//!   },
//!   "pass": true
//! }
//! ```

use mpise_obs::Provenance;

/// Per-mode counters and failures feeding the artifact.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Fuzz programs executed across all extension targets.
    pub fuzz_programs: u64,
    /// Extension targets fuzzed.
    pub fuzz_exts: u64,
    /// Fuzz divergences (shrunk listings included in the message).
    pub fuzz_failures: Vec<String>,
    /// Kernel × configuration combinations diffed.
    pub kernel_combos: u64,
    /// Total kernel + field cases diffed.
    pub kernel_cases: u64,
    /// Kernel/field divergences.
    pub kernel_failures: Vec<String>,
    /// KAT vectors checked (summed over backends).
    pub kat_vectors: u64,
    /// Backends the KAT suite ran on.
    pub kat_backends: u64,
    /// Corpus entries replayed.
    pub corpus_files: u64,
    /// KAT/corpus failures.
    pub kat_failures: Vec<String>,
}

impl GateReport {
    /// Whether every mode passed.
    pub fn pass(&self) -> bool {
        self.fuzz_failures.is_empty()
            && self.kernel_failures.is_empty()
            && self.kat_failures.is_empty()
    }

    /// All failure messages, in mode order.
    pub fn all_failures(&self) -> impl Iterator<Item = &String> {
        self.fuzz_failures
            .iter()
            .chain(self.kernel_failures.iter())
            .chain(self.kat_failures.iter())
    }

    /// Renders the `mpise-difftest/v1` artifact.
    pub fn to_json(&self) -> String {
        let prov = Provenance::collect();
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"mpise-difftest/v1\",\n");
        out.push_str(&format!(
            "  \"date\": \"{}\",\n",
            mpise_obs::time::utc_date_string()
        ));
        out.push_str(&format!("  \"provenance\": {},\n", prov.json()));
        out.push_str("  \"modes\": {\n");
        out.push_str(&format!(
            "    \"isa_fuzz\": {{\"programs\": {}, \"exts\": {}, \"failures\": {}}},\n",
            self.fuzz_programs,
            self.fuzz_exts,
            json_strings(&self.fuzz_failures)
        ));
        out.push_str(&format!(
            "    \"kernel_difftest\": {{\"combos\": {}, \"cases\": {}, \"failures\": {}}},\n",
            self.kernel_combos,
            self.kernel_cases,
            json_strings(&self.kernel_failures)
        ));
        out.push_str(&format!(
            "    \"kat_corpus\": {{\"kat_vectors\": {}, \"kat_backends\": {}, \
             \"corpus_files\": {}, \"failures\": {}}}\n",
            self.kat_vectors,
            self.kat_backends,
            self.corpus_files,
            json_strings(&self.kat_failures)
        ));
        out.push_str("  },\n");
        out.push_str(&format!("  \"pass\": {}\n", self.pass()));
        out.push_str("}\n");
        out
    }
}

fn json_strings(v: &[String]) -> String {
    let items: Vec<String> = v
        .iter()
        .map(|s| {
            format!(
                "\"{}\"",
                s.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_has_schema_provenance_and_modes() {
        let mut r = GateReport {
            fuzz_programs: 10,
            fuzz_exts: 3,
            ..GateReport::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"mpise-difftest/v1\""));
        assert!(j.contains("\"provenance\""));
        assert!(j.contains("\"git_commit\""));
        assert!(j.contains("\"isa_fuzz\""));
        assert!(j.contains("\"kernel_difftest\""));
        assert!(j.contains("\"kat_corpus\""));
        assert!(j.contains("\"pass\": true"));
        r.kernel_failures.push("bad \"thing\"\nline2".to_owned());
        let j = r.to_json();
        assert!(j.contains("\"pass\": false"));
        assert!(j.contains("bad \\\"thing\\\"\\nline2"));
    }
}
