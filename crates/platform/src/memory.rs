//! Memory sizes — the single resource-sizing knob of serverless functions.
//!
//! AWS Lambda (at the time of the paper) supported memory sizes from 128 MB
//! to 3008 MB in 64 MB increments; the paper's dataset uses the six sizes
//! {128, 256, 512, 1024, 2048, 3008}. [`MemorySize`] validates the increment
//! rule, and [`MemorySize::STANDARD`] exposes the paper's grid.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::PlatformError;

/// A validated Lambda memory size in megabytes.
///
/// # Examples
///
/// ```
/// use sizeless_platform::MemorySize;
///
/// let m = MemorySize::new(1024)?;
/// assert_eq!(m.mb(), 1024);
/// assert_eq!(m.gb(), 1.0);
/// assert!(MemorySize::new(100).is_err()); // not a 64 MB increment
/// # Ok::<(), sizeless_platform::PlatformError>(())
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct MemorySize(u32);

impl MemorySize {
    /// 128 MB — the smallest (and default) Lambda size.
    pub const MB_128: MemorySize = MemorySize(128);
    /// 256 MB — the paper's preferred monitoring base size.
    pub const MB_256: MemorySize = MemorySize(256);
    /// 512 MB.
    pub const MB_512: MemorySize = MemorySize(512);
    /// 1024 MB.
    pub const MB_1024: MemorySize = MemorySize(1024);
    /// 2048 MB.
    pub const MB_2048: MemorySize = MemorySize(2048);
    /// 3008 MB — the largest size available at the time of the paper.
    pub const MB_3008: MemorySize = MemorySize(3008);

    /// The six memory sizes of the paper's dataset, ascending.
    pub const STANDARD: [MemorySize; 6] = [
        MemorySize::MB_128,
        MemorySize::MB_256,
        MemorySize::MB_512,
        MemorySize::MB_1024,
        MemorySize::MB_2048,
        MemorySize::MB_3008,
    ];

    /// Largest configurable size (3008 MB).
    pub const MAX: MemorySize = MemorySize(3008);

    /// Creates a validated memory size.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidMemorySize`] unless
    /// `128 <= mb <= 3008` and `mb` is a multiple of 64 (the historical
    /// Lambda increments the paper's limitation section discusses; the
    /// 3008 MB maximum is itself on the 64 MB grid).
    pub fn new(mb: u32) -> Result<Self, PlatformError> {
        let valid = (128..=3008).contains(&mb) && mb.is_multiple_of(64);
        if valid {
            Ok(MemorySize(mb))
        } else {
            Err(PlatformError::InvalidMemorySize { mb })
        }
    }

    /// All configurable sizes in 64 MB increments (plus the 3008 cap),
    /// ascending — the grid the paper's limitation section mentions.
    pub fn all_increments() -> Vec<MemorySize> {
        let mut v: Vec<MemorySize> = (2..=46).map(|i| MemorySize(i * 64)).collect();
        v.push(MemorySize::MAX);
        v
    }

    /// The size in megabytes.
    pub fn mb(self) -> u32 {
        self.0
    }

    /// The size in gigabytes (used by GB-second pricing).
    pub fn gb(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// The index of this size within [`MemorySize::STANDARD`], if it is one
    /// of the six standard sizes.
    pub fn standard_index(self) -> Option<usize> {
        MemorySize::STANDARD.iter().position(|m| *m == self)
    }
}

impl fmt::Display for MemorySize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MB", self.0)
    }
}

impl TryFrom<u32> for MemorySize {
    type Error = PlatformError;
    fn try_from(mb: u32) -> Result<Self, Self::Error> {
        MemorySize::new(mb)
    }
}

impl From<MemorySize> for u32 {
    fn from(m: MemorySize) -> u32 {
        m.mb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_sizes_are_valid_and_sorted() {
        for pair in MemorySize::STANDARD.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        for m in MemorySize::STANDARD {
            assert_eq!(MemorySize::new(m.mb()).unwrap(), m);
        }
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(MemorySize::new(64).is_err());
        assert!(MemorySize::new(0).is_err());
        assert!(MemorySize::new(3072).is_err());
        assert!(MemorySize::new(4096).is_err());
    }

    #[test]
    fn rejects_non_increment() {
        assert!(MemorySize::new(100).is_err());
        assert!(MemorySize::new(129).is_err());
        // 3008 is not a multiple of 64 but is the documented maximum.
        assert!(MemorySize::new(3008).is_ok());
    }

    #[test]
    fn accepts_all_increments() {
        let all = MemorySize::all_increments();
        assert_eq!(all.first().unwrap().mb(), 128);
        assert_eq!(all.last().unwrap().mb(), 3008);
        // 128..=2944 in steps of 64 (45 values) + 3008.
        assert_eq!(all.len(), 46);
        for m in &all {
            assert!(MemorySize::new(m.mb()).is_ok());
        }
    }

    #[test]
    fn gb_conversion() {
        assert_eq!(MemorySize::MB_512.gb(), 0.5);
        assert_eq!(MemorySize::MB_1024.gb(), 1.0);
    }

    #[test]
    fn standard_index() {
        assert_eq!(MemorySize::MB_128.standard_index(), Some(0));
        assert_eq!(MemorySize::MB_3008.standard_index(), Some(5));
        assert_eq!(MemorySize::new(192).unwrap().standard_index(), None);
    }

    #[test]
    fn display_and_conversions() {
        assert_eq!(MemorySize::MB_256.to_string(), "256MB");
        assert_eq!(u32::from(MemorySize::MB_256), 256);
        assert_eq!(MemorySize::try_from(256u32).unwrap(), MemorySize::MB_256);
    }
}
