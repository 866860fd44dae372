//! The register-file organizations compared in the paper.
//!
//! | Name | Source | Behaviour |
//! |------|--------|-----------|
//! | `BL` | [`ltrf_sim::DirectRegisterFile`] | conventional non-cached register file |
//! | `RFC` | [`RfcRegisterFile`] | demand-driven hardware register cache |
//! | `SHRF` | [`ShrfRegisterFile`] | compile-time managed hierarchy over strands |
//! | `LTRF` | [`LtrfRegisterFile`] | register-interval prefetching (this paper) |
//! | `LTRF+` | [`LtrfRegisterFile`] with [`LtrfParams::liveness_aware`] | LTRF plus operand-liveness awareness |
//! | `Ideal` | [`ltrf_sim::IdealRegisterFile`] | 8× capacity at baseline latency |

mod ltrf;
mod rfc;
mod shrf;

pub use ltrf::{LtrfParams, LtrfRegisterFile};
pub use rfc::RfcRegisterFile;
pub use shrf::ShrfRegisterFile;

use ltrf_compiler::{compile, CompilerOptions, PrefetchSubgraphKind};
use ltrf_isa::Kernel;
use ltrf_sim::{DirectRegisterFile, IdealRegisterFile, RegFileTiming, RegisterFileModel};

use crate::error::CoreError;

/// The register-file organizations evaluated in the paper.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Organization {
    /// Conventional non-cached register file (`BL`).
    Baseline,
    /// Hardware register-file cache without prefetching.
    Rfc,
    /// Software-managed hierarchical register file over strands.
    Shrf,
    /// LTRF with register-interval prefetching.
    Ltrf,
    /// LTRF with operand-liveness awareness.
    LtrfPlus,
    /// LTRF whose PREFETCH subgraphs are strands instead of
    /// register-intervals (the §6.6 ablation).
    LtrfStrand,
    /// Ideal register file: any capacity at baseline latency.
    Ideal,
}

impl Organization {
    /// All organizations, in the order the paper's figures list them.
    #[must_use]
    pub const fn all() -> &'static [Organization] {
        &[
            Organization::Baseline,
            Organization::Rfc,
            Organization::Shrf,
            Organization::Ltrf,
            Organization::LtrfPlus,
            Organization::LtrfStrand,
            Organization::Ideal,
        ]
    }

    /// Display label used in reports and figures.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Organization::Baseline => "BL",
            Organization::Rfc => "RFC",
            Organization::Shrf => "SHRF",
            Organization::Ltrf => "LTRF",
            Organization::LtrfPlus => "LTRF+",
            Organization::LtrfStrand => "LTRF (strand)",
            Organization::Ideal => "Ideal",
        }
    }

    /// The prefetch-subgraph kind this organization compiles with, if any.
    #[must_use]
    pub const fn subgraph_kind(self) -> Option<PrefetchSubgraphKind> {
        match self {
            Organization::Ltrf | Organization::LtrfPlus => {
                Some(PrefetchSubgraphKind::RegisterInterval)
            }
            Organization::Shrf | Organization::LtrfStrand => Some(PrefetchSubgraphKind::Strand),
            _ => None,
        }
    }
}

impl std::fmt::Display for Organization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The kernel to simulate plus the register-file model to simulate it with.
///
/// Organizations that rely on compiler support run the *compiled* kernel
/// (whose basic blocks may have been split), so the kernel and the model are
/// built together.
pub struct BuiltOrganization {
    /// The kernel the simulator must execute.
    pub kernel: Kernel,
    /// The register-file model implementing the organization.
    pub model: Box<dyn RegisterFileModel>,
}

impl std::fmt::Debug for BuiltOrganization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltOrganization")
            .field("kernel", &self.kernel.name())
            .field("model", &self.model.name())
            .finish()
    }
}

/// Compiles `kernel` (when needed) and instantiates the register-file model
/// for `organization`.
///
/// # Errors
///
/// Propagates compiler errors for the organizations that need compilation
/// (for example, a register-interval budget smaller than one instruction's
/// operand count).
pub fn build_organization(
    organization: Organization,
    kernel: &Kernel,
    timing: RegFileTiming,
    params: LtrfParams,
    rfc_entries_per_warp: usize,
) -> Result<BuiltOrganization, CoreError> {
    let (kernel, mut models) = build_organization_fleet(
        organization,
        kernel,
        timing,
        params,
        rfc_entries_per_warp,
        1,
    )?;
    Ok(BuiltOrganization {
        kernel,
        model: models.pop().expect("fleet of one"),
    })
}

/// Like [`build_organization`], but produces `count` independent model
/// instances over a *single* compilation. Multi-SM simulations need one
/// model per SM; compiling the identical kernel once per SM would repeat
/// the same deterministic work `count` times.
///
/// Returns the kernel the simulator must execute (compiled when the
/// organization needs it) and the models, all equivalent and fresh.
///
/// # Errors
///
/// Propagates compiler errors exactly like [`build_organization`].
#[allow(clippy::type_complexity)]
pub fn build_organization_fleet(
    organization: Organization,
    kernel: &Kernel,
    timing: RegFileTiming,
    params: LtrfParams,
    rfc_entries_per_warp: usize,
    count: usize,
) -> Result<(Kernel, Vec<Box<dyn RegisterFileModel>>), CoreError> {
    let count = count.max(1);
    // Compile once for the organizations that need it.
    let compiled = match organization {
        Organization::Shrf | Organization::LtrfStrand => {
            let options = CompilerOptions {
                max_registers_per_interval: params.registers_per_interval,
                subgraph_kind: PrefetchSubgraphKind::Strand,
                reduce_intervals: false,
                annotate_liveness: true,
            };
            Some(compile(kernel, &options)?)
        }
        Organization::Ltrf | Organization::LtrfPlus => {
            let options =
                CompilerOptions::default().with_max_registers(params.registers_per_interval);
            Some(compile(kernel, &options)?)
        }
        Organization::Baseline | Organization::Ideal | Organization::Rfc => None,
    };
    let executed_kernel = compiled
        .as_ref()
        .map_or_else(|| kernel.clone(), |c| c.kernel.clone());
    let mut models: Vec<Box<dyn RegisterFileModel>> = Vec::with_capacity(count);
    for _ in 0..count {
        let model: Box<dyn RegisterFileModel> = match organization {
            Organization::Baseline => Box::new(DirectRegisterFile::new(timing)),
            Organization::Ideal => Box::new(IdealRegisterFile::new(timing)),
            Organization::Rfc => Box::new(RfcRegisterFile::new(timing, rfc_entries_per_warp)),
            Organization::Shrf => Box::new(ShrfRegisterFile::new(
                compiled.clone().expect("SHRF compiles"),
                timing,
            )),
            Organization::Ltrf | Organization::LtrfPlus => {
                let p = LtrfParams {
                    liveness_aware: organization == Organization::LtrfPlus,
                    ..params
                };
                Box::new(LtrfRegisterFile::new(
                    compiled.clone().expect("LTRF compiles"),
                    timing,
                    p,
                ))
            }
            Organization::LtrfStrand => {
                let p = LtrfParams {
                    liveness_aware: false,
                    ..params
                };
                Box::new(
                    LtrfRegisterFile::new(compiled.clone().expect("strands compile"), timing, p)
                        .with_name("LTRF (strand)"),
                )
            }
        };
        models.push(model);
    }
    Ok((executed_kernel, models))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltrf_isa::straight_line_kernel;

    #[test]
    fn labels_and_metadata() {
        assert_eq!(Organization::all().len(), 7);
        assert_eq!(Organization::Ltrf.label(), "LTRF");
        assert_eq!(Organization::LtrfPlus.to_string(), "LTRF+");
        assert_eq!(
            Organization::LtrfStrand.subgraph_kind(),
            Some(PrefetchSubgraphKind::Strand)
        );
        assert_eq!(Organization::Ideal.subgraph_kind(), None);
    }

    #[test]
    fn build_every_organization() {
        let kernel = straight_line_kernel("k", 24, 60);
        for &org in Organization::all() {
            let built = build_organization(
                org,
                &kernel,
                RegFileTiming::default(),
                LtrfParams::default(),
                16,
            )
            .unwrap();
            assert_eq!(built.model.name(), org.label());
            assert!(built.kernel.static_instruction_count() >= 60);
        }
    }

    #[test]
    fn compiled_organizations_run_the_split_kernel() {
        // 48 registers with a 16-register budget: splitting is guaranteed.
        let kernel = straight_line_kernel("k", 48, 96);
        let built = build_organization(
            Organization::Ltrf,
            &kernel,
            RegFileTiming::default(),
            LtrfParams::default(),
            16,
        )
        .unwrap();
        assert!(built.kernel.cfg.block_count() > kernel.cfg.block_count());
    }

    #[test]
    fn impossible_budget_propagates_an_error() {
        let kernel = straight_line_kernel("k", 24, 60);
        let params = LtrfParams {
            registers_per_interval: 1,
            ..LtrfParams::default()
        };
        let err = build_organization(
            Organization::Ltrf,
            &kernel,
            RegFileTiming::default(),
            params,
            16,
        );
        assert!(err.is_err());
    }
}
