#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-tpg — test pattern generation and compression
//!
//! Algorithmic substrate for the pattern sources, decompressors and
//! compactors of the paper's Section III: packed bit vectors, LFSRs
//! (Fibonacci and Galois), multi-chain pseudo-random pattern generators with
//! phase shifters, MISRs for response compaction, test cubes with
//! don't-cares, and test-data compression codecs —
//! run-length coding and LFSR reseeding (EDT-style linear decompression,
//! solved over GF(2)).
//!
//! ```
//! use tve_tpg::{Lfsr, Misr};
//!
//! let mut lfsr = Lfsr::maximal(16, 0xACE1).unwrap();
//! let mut misr = Misr::new(16, 1).unwrap();
//! for _ in 0..1000 {
//!     let w = lfsr.step_word(16);
//!     misr.absorb(w as u64);
//! }
//! assert_ne!(misr.signature(), 0);
//! ```

mod bitvec;
mod compact;
mod compress;
mod cube;
mod lfsr;
mod misr;
mod pattern;
mod prpg;

pub use bitvec::BitVec;
pub use compact::XorCompactor;
pub use compress::{CompressError, Compressor, ReseedingCodec, RunLengthCodec};
pub use cube::TestCube;
pub use lfsr::{Lfsr, PolyError};
pub use misr::Misr;
pub use pattern::{ScanConfig, ScanPattern};
pub use prpg::Prpg;
