//! The application suite of the paper's evaluation (Table 2), at
//! configurable scale.

use crate::barnes::Barnes;
use crate::common::Workload;
use crate::fft::Fft;
use crate::lu::Lu;
use crate::mp3d::Mp3d;
use crate::ocean::Ocean;
use crate::radix::Radix;
use crate::water::{WaterNsq, WaterSpatial};

/// The eight SPLASH applications of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// Hierarchical N-body.
    Barnes,
    /// 1-D complex FFT.
    Fft,
    /// Blocked LU decomposition.
    Lu,
    /// Rarefied air-flow simulation.
    Mp3d,
    /// Ocean-current simulation.
    Ocean,
    /// Radix sort.
    Radix,
    /// O(n²) water simulation.
    WaterNsq,
    /// O(n) water simulation.
    WaterSpa,
}

impl AppId {
    /// All applications in the paper's order (Table 2 / Figure 7).
    pub const ALL: [AppId; 8] = [
        AppId::Barnes,
        AppId::Fft,
        AppId::Lu,
        AppId::Mp3d,
        AppId::Ocean,
        AppId::Radix,
        AppId::WaterNsq,
        AppId::WaterSpa,
    ];
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AppId::Barnes => "Barnes",
            AppId::Fft => "FFT",
            AppId::Lu => "LU",
            AppId::Mp3d => "MP3D",
            AppId::Ocean => "Ocean",
            AppId::Radix => "Radix",
            AppId::WaterNsq => "Water-Nsq",
            AppId::WaterSpa => "Water-Spa",
        };
        f.pad(s)
    }
}

/// Problem-size scale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs for unit/integration tests (sub-second runs).
    Small,
    /// The evaluation scale: working sets well beyond the reduced
    /// 8 KB L1 / 32 KB L2 caches (paper §4.2), scaled from the paper's
    /// sizes so a full app×policy sweep completes in minutes.
    #[default]
    Paper,
}

/// Instantiates an application at a scale.
pub fn app(id: AppId, scale: Scale) -> Box<dyn Workload> {
    match (id, scale) {
        (AppId::Barnes, Scale::Small) => Box::new(Barnes::new(192, 1, 11)),
        (AppId::Barnes, Scale::Paper) => Box::new(Barnes::new(4096, 2, 11)),
        (AppId::Fft, Scale::Small) => Box::new(Fft::new(1024)),
        (AppId::Fft, Scale::Paper) => Box::new(Fft::new(128 * 1024)),
        (AppId::Lu, Scale::Small) => Box::new(Lu::new(64, 8)),
        (AppId::Lu, Scale::Paper) => Box::new(Lu::new(256, 16)),
        (AppId::Mp3d, Scale::Small) => Box::new(Mp3d::new(1000, 2, 8, 13)),
        (AppId::Mp3d, Scale::Paper) => Box::new(Mp3d::new(16_000, 4, 16, 13)),
        (AppId::Ocean, Scale::Small) => Box::new(Ocean::new(34, 2)),
        (AppId::Ocean, Scale::Paper) => Box::new(Ocean::new(386, 5)),
        (AppId::Radix, Scale::Small) => Box::new(Radix::new(4096, 256, 17)),
        (AppId::Radix, Scale::Paper) => Box::new(Radix::new(192 * 1024, 1024, 17)),
        (AppId::WaterNsq, Scale::Small) => Box::new(WaterNsq::new(48, 1, 19)),
        (AppId::WaterNsq, Scale::Paper) => Box::new(WaterNsq::new(320, 2, 19)),
        (AppId::WaterSpa, Scale::Small) => Box::new(WaterSpatial::new(64, 1, 3, 23)),
        (AppId::WaterSpa, Scale::Paper) => Box::new(WaterSpatial::new(512, 3, 5, 23)),
    }
}

/// The full suite at a scale, in the paper's order.
pub fn suite(scale: Scale) -> Vec<(AppId, Box<dyn Workload>)> {
    AppId::ALL.iter().map(|&id| (id, app(id, scale))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_generates_quickly_and_validates() {
        for (id, w) in suite(Scale::Small) {
            let t = w.generate(8);
            assert_eq!(t.lanes.len(), 8, "{id}");
            assert!(t.total_refs() > 1000, "{id}: {} refs", t.total_refs());
            t.validate(&prism_mem::addr::Geometry::default())
                .unwrap_or_else(|e| panic!("{id}: {e}"));
        }
    }

    #[test]
    fn descriptions_mention_sizes() {
        for (id, w) in suite(Scale::Paper) {
            let d = w.description();
            assert!(!d.is_empty(), "{id}");
        }
        assert!(app(AppId::Fft, Scale::Paper).description().contains("128K"));
    }

    #[test]
    fn display_names_match_paper() {
        let names: Vec<String> = AppId::ALL.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "Barnes",
                "FFT",
                "LU",
                "MP3D",
                "Ocean",
                "Radix",
                "Water-Nsq",
                "Water-Spa"
            ]
        );
    }
}
