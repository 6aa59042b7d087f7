//! The facade tying the compilation layer and the system layer together.

use std::error::Error;
use std::fmt;

use vital_cluster::AppRequest;
use vital_compiler::{CompileError, CompiledApp, Compiler, CompilerConfig};
use vital_netlist::hls::AppSpec;
use vital_netlist::NetlistError;
use vital_periph::TenantId;
use vital_runtime::{DeployHandle, RuntimeConfig, RuntimeError, SystemController};

/// Unified error type of the facade.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VitalError {
    /// The compilation flow failed.
    Compile(CompileError),
    /// The runtime (system layer) failed.
    Runtime(RuntimeError),
}

impl fmt::Display for VitalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VitalError::Compile(e) => write!(f, "compile error: {e}"),
            VitalError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl Error for VitalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VitalError::Compile(e) => Some(e),
            VitalError::Runtime(e) => Some(e),
        }
    }
}

impl From<CompileError> for VitalError {
    fn from(e: CompileError) -> Self {
        VitalError::Compile(e)
    }
}

impl From<RuntimeError> for VitalError {
    fn from(e: RuntimeError) -> Self {
        VitalError::Runtime(e)
    }
}

impl From<NetlistError> for VitalError {
    fn from(e: NetlistError) -> Self {
        VitalError::Compile(CompileError::Synthesis(e))
    }
}

/// Configuration of the whole stack.
#[derive(Debug, Clone, Default)]
pub struct StackConfig {
    /// Compilation-layer parameters.
    pub compiler: CompilerConfig,
    /// System-layer parameters.
    pub runtime: RuntimeConfig,
}

/// The assembled ViTAL stack: compiler + system controller.
///
/// See the [crate-level documentation](crate) for a quickstart.
#[derive(Debug)]
pub struct VitalStack {
    compiler: Compiler,
    controller: SystemController,
}

impl VitalStack {
    /// Creates a stack over the paper's default platform (4× XCVU37P).
    pub fn new() -> Self {
        Self::with_config(StackConfig::default())
    }

    /// Creates a stack with explicit configuration.
    pub fn with_config(config: StackConfig) -> Self {
        VitalStack {
            compiler: Compiler::new(config.compiler),
            controller: SystemController::new(config.runtime),
        }
    }

    /// The compilation layer.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// The system layer.
    pub fn controller(&self) -> &SystemController {
        &self.controller
    }

    /// Compiles an application through the six-step flow and registers the
    /// resulting relocatable bitstream in the bitstream database.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures and name collisions.
    pub fn compile_and_register(&self, spec: &AppSpec) -> Result<CompiledApp, VitalError> {
        let compiled = self.compiler.compile(spec)?;
        self.controller.register(compiled.bitstream().clone())?;
        Ok(compiled)
    }

    /// Deploys a registered application (see
    /// [`SystemController::deploy`]).
    ///
    /// # Errors
    ///
    /// Propagates runtime failures (unknown name, cluster full).
    pub fn deploy(&self, name: &str) -> Result<DeployHandle, VitalError> {
        Ok(self.controller.deploy(name)?)
    }

    /// Tears down a deployment (see [`SystemController::undeploy`]).
    ///
    /// # Errors
    ///
    /// Propagates runtime failures (unknown tenant).
    pub fn undeploy(&self, tenant: TenantId) -> Result<(), VitalError> {
        Ok(self.controller.undeploy(tenant)?)
    }

    /// Builds a cluster-simulator request from a *registered* application's
    /// real compiled artifact: block demand comes from the bitstream, the
    /// throughput model from its DSP content and post-P&R clock, and the
    /// communication intensity from the interface plan's worst per-block
    /// boundary traffic relative to the lane supply. This is the bridge
    /// between the offline (compiler) and online (simulator) halves of the
    /// reproduction.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownApp`] (wrapped) if the name is not
    /// registered.
    pub fn request_for(
        &self,
        id: u64,
        name: &str,
        work_ops: f64,
        arrival_s: f64,
    ) -> Result<AppRequest, VitalError> {
        let bs = self.controller.bitstreams().get(name)?;
        let dsp = bs.total_resources().dsp as f64;
        let throughput = (dsp * 2.0 * bs.achieved_mhz() * 1.0e6).max(1.0);
        // Boundary demand over the communication region's lane supply
        // (6 lanes x the saturating inter-die flit width).
        let lane_supply = 6.0 * 1024.0;
        let comm = bs.channel_plan().max_block_bits() as f64 / lane_supply;
        Ok(AppRequest::new(id, name, bs.block_count() as u32, work_ops)
            .with_throughput(throughput)
            .with_comm_intensity(comm.clamp(0.05, 0.9))
            .arriving_at(arrival_s))
    }
}

impl Default for VitalStack {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_netlist::hls::Operator;

    #[test]
    fn end_to_end_compile_deploy_undeploy() {
        let stack = VitalStack::new();
        let mut spec = AppSpec::new("e2e");
        spec.add_operator("m", Operator::MacArray { pes: 12 });
        let compiled = stack.compile_and_register(&spec).unwrap();
        assert!(compiled.bitstream().block_count() >= 1);
        let h = stack.deploy("e2e").unwrap();
        stack.undeploy(h.tenant()).unwrap();
    }

    #[test]
    fn duplicate_registration_fails() {
        let stack = VitalStack::new();
        let mut spec = AppSpec::new("dup");
        spec.add_operator("m", Operator::Pipeline { slices: 4 });
        stack.compile_and_register(&spec).unwrap();
        assert!(matches!(
            stack.compile_and_register(&spec),
            Err(VitalError::Runtime(RuntimeError::AppExists(_)))
        ));
    }

    #[test]
    fn compile_or_reuse_hits_the_cache() {
        let stack = VitalStack::new();
        let mut spec = AppSpec::new("cold");
        spec.add_operator("m", Operator::MacArray { pes: 12 });
        // The compile-cache fast path: on a hit, no place-and-route runs.
        let cold = stack
            .controller
            .register_compiled(&stack.compiler, &spec)
            .unwrap();
        assert!(!cold.cache_hit);
        let mut same = AppSpec::new("warm");
        same.add_operator("m", Operator::MacArray { pes: 12 });
        let warm = stack
            .controller
            .register_compiled(&stack.compiler, &same)
            .unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.digest, cold.digest);
        assert!(stack.deploy("warm").is_ok());
    }

    #[test]
    fn deploy_unknown_app_fails() {
        let stack = VitalStack::new();
        assert!(matches!(
            stack.deploy("ghost"),
            Err(VitalError::Runtime(RuntimeError::UnknownApp(_)))
        ));
    }

    #[test]
    fn error_source_chain() {
        let e = VitalError::Runtime(RuntimeError::UnknownApp("x".into()));
        assert!(e.source().is_some());
        assert!(!e.to_string().is_empty());
    }
}
