//! Strongly-typed index newtypes used across the IR.
//!
//! Every IR entity (value, instruction, loop, array, tape group) is referred
//! to by a compact `u32` index wrapped in a dedicated newtype, so mixing up
//! index spaces is a compile-time error (C-NEWTYPE).

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates an id from a raw index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn new(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index overflows u32"))
            }

            /// Returns the raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id! {
    /// Identifies an SSA value within a [`crate::Function`].
    ValueId, "%"
}
define_id! {
    /// Identifies an instruction within a [`crate::Function`].
    InstId, "inst"
}
define_id! {
    /// Identifies a loop within a [`crate::Function`].
    LoopId, "loop"
}
define_id! {
    /// Identifies an array (memory object) within a [`crate::Function`].
    ArrayId, "@"
}
define_id! {
    /// Identifies a tape *region group*: the set of tape arrays Pass 1
    /// merges into one array-of-structs region (see `tapeflow-core`).
    TapeGroupId, "region"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v = ValueId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(format!("{v}"), "%42");
        assert_eq!(format!("{v:?}"), "%42");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(InstId::new(1) < InstId::new(2));
        assert_eq!(ArrayId::new(7), ArrayId::new(7));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflow_panics() {
        let _ = ValueId::new(usize::MAX);
    }
}
