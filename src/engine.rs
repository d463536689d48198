//! Backend registry for the facade.
//!
//! `fisheye_core::engine` defines the [`CorrectionEngine`] trait and
//! builds the host paths, but it cannot see the accelerator models
//! (`cellsim`/`gpusim` depend on it, not the other way around). All
//! cross-crate engine resolution now lives in the
//! [`Corrector`](crate::Corrector) builder, which traces maps,
//! compiles plans and resolves *any* [`EngineSpec`] — host or
//! accelerator — behind one entry point. This module keeps the
//! registry listing and the engine-layer re-exports.
//!
//! [`CorrectionEngine`]: crate::core::engine::CorrectionEngine

use crate::core::engine::EngineSpec;

pub use crate::core::engine::{FrameReport, NumericClass};

/// The canonical spec list ([`EngineSpec::registry`]) — one entry per
/// backend, each buildable by the [`Corrector`](crate::Corrector)
/// builder.
pub fn registry() -> Vec<EngineSpec> {
    EngineSpec::registry()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{FisheyeLens, PerspectiveView};
    use crate::img::Gray8;

    #[test]
    fn every_registry_spec_builds_through_the_corrector() {
        let lens = FisheyeLens::equidistant_fov(64, 48, 180.0);
        let view = PerspectiveView::centered(32, 24, 90.0);
        for spec in registry() {
            let c = crate::Corrector::<Gray8>::builder()
                .lens(lens)
                .view(view)
                .backend(spec)
                .build()
                .unwrap();
            assert_eq!(c.spec().name(), spec.name());
        }
    }
}
