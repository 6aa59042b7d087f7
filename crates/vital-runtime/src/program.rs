//! Per-tenant instruction streams compiled from DNN benchmark structure.

use std::fmt;

use serde::{Deserialize, Serialize};
use vital_workloads::{benchmarks, DnnBenchmark, Size};

/// Error returned when an app name is not a known DNN suite variant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnknownIsaApp {
    /// The app name that failed to resolve.
    pub app: String,
}

impl fmt::Display for UnknownIsaApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "'{}' is not a DNN suite variant (expected <bench>-<S|M|L>)",
            self.app
        )
    }
}

impl std::error::Error for UnknownIsaApp {}

/// A tenant's instruction stream: the DNN variant it was compiled from and
/// the layer structure its jobs replay.
///
/// The fabric backend synthesizes `tile_count` chained compute tiles per
/// variant (`DnnBenchmark::spec`); the ISA compiler maps the same chain to
/// `tile_count` layers. The *natural*
/// tile share of a tenant is therefore the variant's Table 2 block count,
/// which keeps the two backends' capacity requests directly comparable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsaProgram {
    app: String,
    bench: String,
    size: Size,
    layers: u32,
}

impl IsaProgram {
    /// Compile a program for one suite variant.
    pub fn compile(bench: &DnnBenchmark, size: Size) -> Self {
        IsaProgram {
            app: format!("{}-{}", bench.name(), size.letter()),
            bench: bench.name().to_string(),
            size,
            layers: bench.tile_count(size),
        }
    }

    /// Resolve an app name of the form `<bench>-<S|M|L>` against the DNN
    /// suite and compile it.
    pub fn for_app(app: &str) -> Result<Self, UnknownIsaApp> {
        let unknown = || UnknownIsaApp {
            app: app.to_string(),
        };
        let (bench_name, letter) = app.rsplit_once('-').ok_or_else(unknown)?;
        let size = match letter {
            "S" => Size::Small,
            "M" => Size::Medium,
            "L" => Size::Large,
            _ => return Err(unknown()),
        };
        let suite = benchmarks();
        let bench = suite
            .iter()
            .find(|b| b.name() == bench_name)
            .ok_or_else(unknown)?;
        Ok(IsaProgram::compile(bench, size))
    }

    /// The variant's natural tile share: its Table 2 block count. Used as
    /// the initial allocation request when the tenant deploys.
    pub fn natural_tiles(&self) -> usize {
        self.layers as usize
    }
}

#[cfg(test)]
impl IsaProgram {
    /// The full app name (`<bench>-<letter>`).
    pub(crate) fn app(&self) -> &str {
        &self.app
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_app_resolves_every_suite_variant() {
        for b in benchmarks() {
            for s in Size::ALL {
                let app = format!("{}-{}", b.name(), s.letter());
                let p = IsaProgram::for_app(&app).unwrap();
                assert_eq!(p.app(), app);
                assert_eq!(p.natural_tiles(), b.tile_count(s) as usize);
                assert_eq!(p.layers, b.tile_count(s));
            }
        }
    }

    #[test]
    fn for_app_rejects_non_suite_names() {
        assert!(IsaProgram::for_app("resnet-S").is_err());
        assert!(IsaProgram::for_app("lenet-X").is_err());
        assert!(IsaProgram::for_app("lenet").is_err());
        let err = IsaProgram::for_app("nope").unwrap_err();
        assert!(err.to_string().contains("nope"));
    }
}
