//! Workload-trace persistence: a generated set, with the provenance needed
//! to regenerate it, survives JSON exactly, so an experiment's request
//! stream can be archived and replayed (the paper averages several
//! generated sets per condition, §5.1 — traces make those runs auditable).

#[cfg(test)]
mod tests {
    use serde::{Deserialize, Serialize};
    use vital_cluster::AppRequest;

    use crate::{generate_workload_set, SizingModel, WorkloadComposition, WorkloadParams};

    /// A workload set plus the provenance needed to regenerate or audit it.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct WorkloadTrace {
        /// The Table 3 composition the set was drawn from.
        composition: WorkloadComposition,
        /// Generator seed.
        seed: u64,
        /// The request stream.
        requests: Vec<AppRequest>,
    }

    impl WorkloadTrace {
        fn to_json(&self) -> Result<String, serde_json::Error> {
            serde_json::to_string_pretty(self)
        }

        fn from_json(json: &str) -> Result<Self, serde_json::Error> {
            serde_json::from_str(json)
        }
    }

    #[test]
    fn trace_roundtrips_exactly() {
        let composition = WorkloadComposition::table3()[4];
        let params = WorkloadParams {
            seed: 77,
            ..WorkloadParams::default()
        };
        let requests = generate_workload_set(&composition, &params, &SizingModel::default());
        let trace = WorkloadTrace {
            composition,
            seed: params.seed,
            requests,
        };
        let json = trace.to_json().unwrap();
        let back = WorkloadTrace::from_json(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(WorkloadTrace::from_json("{not json").is_err());
    }
}
