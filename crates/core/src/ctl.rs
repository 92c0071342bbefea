//! CTL-lite core descriptions (IEEE Std 1450.6 flavoured) and automatic
//! wrapper generation.
//!
//! The paper (Section III.B): "Given the Core Test Language description of
//! the interface of the core, comprised of functional, system and test in-
//! and outputs, a test wrapper TLM can be generated automatically." This
//! module provides that generator for a compact textual description.

use std::fmt;
use std::rc::Rc;

use tve_sim::SimHandle;
use tve_tpg::ScanConfig;

use crate::model::CoreModel;
use crate::wrapper::{TestWrapper, WrapperConfig};

/// Port categories of a CTL interface description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtlPortKind {
    /// Functional data input.
    FunctionalIn,
    /// Functional data output.
    FunctionalOut,
    /// Scan chain input.
    ScanIn,
    /// Scan chain output.
    ScanOut,
    /// Test control (mode, enable, clock).
    TestControl,
}

impl CtlPortKind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "in" => Some(CtlPortKind::FunctionalIn),
            "out" => Some(CtlPortKind::FunctionalOut),
            "scanin" => Some(CtlPortKind::ScanIn),
            "scanout" => Some(CtlPortKind::ScanOut),
            "ctl" => Some(CtlPortKind::TestControl),
            _ => None,
        }
    }
}

/// One port of a core interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtlPort {
    /// Port name.
    pub(crate) name: String,
    /// Port category.
    pub(crate) kind: CtlPortKind,
    /// Bit width.
    pub(crate) width: u32,
}

/// Error validating or parsing a CTL description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtlError {
    /// Human-readable description.
    pub(crate) message: String,
}

impl fmt::Display for CtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CTL description: {}", self.message)
    }
}

impl std::error::Error for CtlError {}

fn err(message: impl Into<String>) -> CtlError {
    CtlError {
        message: message.into(),
    }
}

/// A CTL-lite description of a core's test interface.
///
/// Textual format: a header line `core <name> scan <chains>x<len>`,
/// followed by one port per line: `<in|out|scanin|scanout|ctl> <name>
/// <width>`. Lines starting with `#` are comments.
///
/// ```
/// use tve_core::CtlDescription;
/// let ctl = CtlDescription::parse(
///     "core dct scan 8x128\n\
///      in data 64\n\
///      out coeff 64\n\
///      scanin si 8\n\
///      scanout so 8\n\
///      ctl test_mode 1\n",
/// );
/// assert!(ctl.is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtlDescription {
    /// The described core's name.
    pub(crate) core_name: String,
    /// All interface ports.
    pub(crate) ports: Vec<CtlPort>,
    /// Internal scan geometry.
    pub(crate) scan: ScanConfig,
}

impl CtlDescription {
    /// Parses the textual format; see the type docs.
    ///
    /// # Errors
    ///
    /// Returns [`CtlError`] on malformed text or an inconsistent
    /// description (scan port widths must match the scan geometry).
    pub fn parse(text: &str) -> Result<Self, CtlError> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header = lines.next().ok_or_else(|| err("empty description"))?;
        let parts: Vec<&str> = header.split_whitespace().collect();
        let ["core", name, "scan", geom] = parts.as_slice() else {
            return Err(err("header must be 'core <name> scan <chains>x<len>'"));
        };
        let (chains, len) = geom
            .split_once('x')
            .ok_or_else(|| err("scan geometry must be <chains>x<len>"))?;
        let chains: u32 = chains.parse().map_err(|_| err("bad chain count"))?;
        let len: u32 = len.parse().map_err(|_| err("bad chain length"))?;
        if chains == 0 || len == 0 {
            return Err(err("scan geometry must be non-zero"));
        }
        let mut ports = Vec::new();
        for line in lines {
            let parts: Vec<&str> = line.split_whitespace().collect();
            let [kind, name, width] = parts.as_slice() else {
                return Err(err(format!(
                    "port line must be '<kind> <name> <width>': '{line}'"
                )));
            };
            let kind = CtlPortKind::parse(kind)
                .ok_or_else(|| err(format!("unknown port kind '{kind}'")))?;
            let width: u32 = width
                .parse()
                .map_err(|_| err(format!("bad width in '{line}'")))?;
            if width == 0 {
                return Err(err(format!("zero-width port '{name}'")));
            }
            ports.push(CtlPort {
                name: name.to_string(),
                kind,
                width,
            });
        }
        let desc = CtlDescription {
            core_name: name.to_string(),
            ports,
            scan: ScanConfig::new(chains, len),
        };
        desc.validate()?;
        Ok(desc)
    }

    /// Total width of ports of `kind`.
    pub(crate) fn width_of(&self, kind: CtlPortKind) -> u32 {
        self.ports
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.width)
            .sum()
    }

    /// Boundary register length of the generated wrapper: one wrapper cell
    /// per functional I/O bit.
    pub(crate) fn boundary_cells(&self) -> u32 {
        self.width_of(CtlPortKind::FunctionalIn) + self.width_of(CtlPortKind::FunctionalOut)
    }

    /// Checks consistency: the scan in/out port widths must equal the
    /// number of scan chains.
    ///
    /// # Errors
    ///
    /// Returns [`CtlError`] if the scan ports disagree with the geometry.
    pub(crate) fn validate(&self) -> Result<(), CtlError> {
        for kind in [CtlPortKind::ScanIn, CtlPortKind::ScanOut] {
            let w = self.width_of(kind);
            if w != 0 && w != self.scan.chains() {
                return Err(err(format!(
                    "scan port width {w} does not match {} chains",
                    self.scan.chains()
                )));
            }
        }
        Ok(())
    }

    /// Generates a test wrapper for `core` from this description — the
    /// paper's automatic wrapper generation.
    ///
    /// # Errors
    ///
    /// Returns [`CtlError`] if the description is inconsistent or `core`'s
    /// scan geometry differs from the described one.
    pub fn generate_wrapper(
        &self,
        handle: &SimHandle,
        core: Rc<dyn CoreModel>,
    ) -> Result<TestWrapper, CtlError> {
        self.validate()?;
        if core.scan_config() != self.scan {
            return Err(err(format!(
                "core '{}' has scan {} but description says {}",
                core.name(),
                core.scan_config(),
                self.scan
            )));
        }
        let cfg = WrapperConfig {
            name: format!("{}_wrapper", self.core_name),
            boundary_cells: self.boundary_cells().max(1),
            ..WrapperConfig::default()
        };
        Ok(TestWrapper::new(handle, cfg, core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_bus::ConfigClient;
    use crate::model::SyntheticLogicCore;
    use crate::wrapper::WrapperMode;
    use tve_sim::Simulation;
    use tve_tlm::TamIf;

    const DCT: &str = "core dct scan 8x128\n\
                       # functional interface\n\
                       in data 64\n\
                       out coeff 64\n\
                       scanin si 8\n\
                       scanout so 8\n\
                       ctl test_mode 1\n";

    #[test]
    fn parse_and_widths() {
        let ctl = CtlDescription::parse(DCT).unwrap();
        assert_eq!(ctl.core_name, "dct");
        assert_eq!(ctl.scan, ScanConfig::new(8, 128));
        assert_eq!(ctl.width_of(CtlPortKind::FunctionalIn), 64);
        assert_eq!(ctl.boundary_cells(), 128);
        assert_eq!(ctl.ports.len(), 5);
    }

    #[test]
    fn parse_errors() {
        assert!(CtlDescription::parse("").is_err());
        assert!(CtlDescription::parse("core x scan 8").is_err());
        assert!(CtlDescription::parse("core x scan 0x8").is_err());
        assert!(CtlDescription::parse("core x scan 2x8\nfrobnicate p 1").is_err());
        assert!(CtlDescription::parse("core x scan 2x8\nin p zero").is_err());
        // scan-in width disagrees with chain count
        assert!(CtlDescription::parse("core x scan 4x8\nscanin si 2").is_err());
    }

    #[test]
    fn generated_wrapper_matches_description() {
        let mut sim = Simulation::new();
        let ctl = CtlDescription::parse(DCT).unwrap();
        let core = Rc::new(SyntheticLogicCore::new("dct", ScanConfig::new(8, 128), 1));
        let w = Rc::new(ctl.generate_wrapper(&sim.handle(), core).unwrap());
        assert_eq!(TamIf::name(&*w), "dct_wrapper");
        assert_eq!(w.scan_config(), ScanConfig::new(8, 128));
        // The boundary register length drives ext-test shift timing.
        w.load_config(WrapperMode::ExtTest.encode());
        let w2 = Rc::clone(&w);
        sim.spawn(async move {
            let mut t = tve_tlm::Transaction::volume(
                tve_tlm::InitiatorId(0),
                tve_tlm::Command::Write,
                0,
                128,
            );
            w2.transport(&mut t).await;
            assert!(t.status.is_ok());
            w2.drain().await;
        });
        // 128 boundary cells + 4 capture cycles.
        assert_eq!(sim.run().cycles(), 132);
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let sim = Simulation::new();
        let ctl = CtlDescription::parse(DCT).unwrap();
        let core = Rc::new(SyntheticLogicCore::new("dct", ScanConfig::new(4, 128), 1));
        assert!(ctl.generate_wrapper(&sim.handle(), core).is_err());
    }
}
