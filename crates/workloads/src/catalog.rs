//! The evaluation workload catalog — Table 2 of the paper.

use crate::em3d::{em3d, Em3dParams};
use crate::erlebacher::{erlebacher, ErlebacherParams};
use crate::fft::{fft, FftParams};
use crate::latbench::{latbench, LatbenchParams};
use crate::lu::{lu, LuParams};
use crate::mp3d::{mp3d, Mp3dParams};
use crate::mst::{mst, MstParams};
use crate::ocean::{ocean, OceanParams};
use crate::workload::Workload;

/// Application identifiers, in the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// The latency-detection microbenchmark.
    Latbench,
    /// Electromagnetic propagation (Split-C).
    Em3d,
    /// 3-D tridiagonal solver (ICASE).
    Erlebacher,
    /// Six-step complex FFT (SPLASH-2).
    Fft,
    /// Blocked dense LU (SPLASH-2).
    Lu,
    /// Rarefied flow (SPLASH).
    Mp3d,
    /// Minimal spanning tree (Olden).
    Mst,
    /// Eddy-current simulation (SPLASH-2).
    Ocean,
}

impl App {
    /// Every application, in order.
    pub fn all() -> [App; 8] {
        [
            App::Latbench,
            App::Em3d,
            App::Erlebacher,
            App::Fft,
            App::Lu,
            App::Mp3d,
            App::Mst,
            App::Ocean,
        ]
    }

    /// The scientific applications of Figure 3 (everything but Latbench).
    pub const fn applications() -> [App; 7] {
        [
            App::Em3d,
            App::Erlebacher,
            App::Fft,
            App::Lu,
            App::Mp3d,
            App::Mst,
            App::Ocean,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            App::Latbench => "Latbench",
            App::Em3d => "Em3d",
            App::Erlebacher => "Erlebacher",
            App::Fft => "FFT",
            App::Lu => "LU",
            App::Mp3d => "Mp3d",
            App::Mst => "MST",
            App::Ocean => "Ocean",
        }
    }

    /// The Table 2 input-size description (simulated system).
    pub fn input_desc(self) -> &'static str {
        match self {
            App::Latbench => "6.4M data size",
            App::Em3d => "32K nodes, deg. 20, 20% rem.",
            App::Erlebacher => "64x64x64 cube, block 8",
            App::Fft => "65536 points",
            App::Lu => "256x256 matrix, block 16",
            App::Mp3d => "100K particles",
            App::Mst => "1024 nodes",
            App::Ocean => "258x258 grid",
        }
    }

    /// Builds the workload at `scale` (1.0 = the paper's simulated input
    /// size; smaller values shrink the dominant dimension accordingly).
    pub fn build(self, scale: f64) -> Workload {
        match self {
            App::Latbench => latbench(LatbenchParams::scaled(scale)),
            App::Em3d => em3d(Em3dParams::scaled(scale)),
            App::Erlebacher => erlebacher(ErlebacherParams::scaled(scale)),
            App::Fft => fft(FftParams::scaled(scale)),
            App::Lu => lu(LuParams::scaled(scale)),
            App::Mp3d => mp3d(Mp3dParams::scaled(scale)),
            App::Mst => mst(MstParams::scaled(scale)),
            App::Ocean => ocean(OceanParams::scaled(scale)),
        }
    }

    /// Whether the paper runs this application in the multiprocessor
    /// experiments (MST and, on the real machine, Mp3d are
    /// uniprocessor-only).
    pub fn runs_multiprocessor(self) -> bool {
        !matches!(self, App::Mst | App::Latbench)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_build_tiny() {
        for app in App::all() {
            let w = app.build(0.02);
            assert!(!w.program.body.is_empty(), "{} has a body", app.name());
            assert!(!w.data.is_empty());
            let _ = w.memory(1);
        }
    }

    #[test]
    fn mp_proc_counts_match_table2() {
        assert_eq!(App::Em3d.build(0.02).mp_procs, 16);
        assert_eq!(App::Erlebacher.build(0.02).mp_procs, 16);
        assert_eq!(App::Fft.build(0.02).mp_procs, 16);
        assert_eq!(App::Lu.build(0.02).mp_procs, 8);
        assert_eq!(App::Mp3d.build(0.02).mp_procs, 8);
        assert_eq!(App::Mst.build(0.02).mp_procs, 1);
        assert_eq!(App::Ocean.build(0.02).mp_procs, 8);
    }

    #[test]
    fn l2_sizes_match_paper() {
        // 64 KB for Erlebacher, FFT, LU, Mp3d; 1 MB for Em3d, MST, Ocean.
        assert_eq!(App::Erlebacher.build(0.02).l2_bytes, 64 * 1024);
        assert_eq!(App::Fft.build(0.02).l2_bytes, 64 * 1024);
        assert_eq!(App::Lu.build(0.02).l2_bytes, 64 * 1024);
        assert_eq!(App::Mp3d.build(0.02).l2_bytes, 64 * 1024);
        assert_eq!(App::Em3d.build(0.02).l2_bytes, 1024 * 1024);
        assert_eq!(App::Mst.build(0.02).l2_bytes, 1024 * 1024);
        assert_eq!(App::Ocean.build(0.02).l2_bytes, 1024 * 1024);
    }
}
