//! Fixed-capacity points: coordinates that live on the stack.
//!
//! Every cube in the workspace has at most [`MAX_RANK`] dimensions, so a
//! point never needs the heap: [`Point`] holds up to that many
//! coordinates inline, plus its rank. Building, copying and dropping one
//! allocates nothing, which is what lets a served request travel from
//! the wire decoder to the tree without a single allocation.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Largest rank a cube is built for: the tree's hot walks are compiled
/// once per rank up to this one, and a [`Point`] holds at most this many
/// coordinates. The doors that read a rank from outside input (a
/// snapshot header, `ddc serve --dims`, a wire point) refuse a larger
/// one with a typed error.
pub const MAX_RANK: usize = 8;

/// A point of at most [`MAX_RANK`] coordinates, held inline. It derefs
/// to the slice of its coordinates.
///
/// # Examples
///
/// ```
/// use ddc_array::{Point, MAX_RANK};
///
/// let mut p = Point::<i64>::from_slice(&[3, -5]).unwrap();
/// assert!(p.push(7));
/// assert_eq!(&p[..], &[3, -5, 7]);
/// assert!(Point::<i64>::from_slice(&[0; MAX_RANK + 1]).is_none());
/// ```
#[derive(Copy, Clone)]
pub struct Point<C = i64> {
    coords: [C; MAX_RANK],
    rank: u8,
}

impl<C: Copy + Default> Point<C> {
    /// The point of rank 0.
    pub fn new() -> Self {
        Self {
            coords: [C::default(); MAX_RANK],
            rank: 0,
        }
    }

    /// A copy of `coords`, or `None` when it has more than [`MAX_RANK`].
    pub fn from_slice(coords: &[C]) -> Option<Self> {
        let mut point = Self::new();
        point
            .coords
            .get_mut(..coords.len())?
            .copy_from_slice(coords);
        point.rank = coords.len() as u8;
        Some(point)
    }

    /// Appends one coordinate; `false` (and the point unchanged) when it
    /// already has [`MAX_RANK`].
    #[must_use]
    pub fn push(&mut self, c: C) -> bool {
        let Some(slot) = self.coords.get_mut(usize::from(self.rank)) else {
            return false;
        };
        *slot = c;
        self.rank += 1;
        true
    }
}

impl<C: Copy + Default> Default for Point<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> Deref for Point<C> {
    type Target = [C];

    fn deref(&self) -> &[C] {
        &self.coords[..usize::from(self.rank)]
    }
}

impl<C> DerefMut for Point<C> {
    fn deref_mut(&mut self) -> &mut [C] {
        &mut self.coords[..usize::from(self.rank)]
    }
}

impl<C> AsRef<[C]> for Point<C> {
    fn as_ref(&self) -> &[C] {
        self
    }
}

impl<C: PartialEq> PartialEq for Point<C> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<C: Eq> Eq for Point<C> {}

impl<C: fmt::Debug> fmt::Debug for Point<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_point_is_its_coordinates_and_stops_at_max_rank() {
        let mut p = Point::<i64>::new();
        assert!(p.is_empty());
        for c in 0..MAX_RANK as i64 {
            assert!(p.push(c - 3));
        }
        assert!(!p.push(99), "a full point takes no more");
        assert_eq!(p.len(), MAX_RANK);
        assert_eq!(Point::from_slice(&p[..]), Some(p));
        assert_eq!(
            format!("{:?}", Point::from_slice(&[1i64, -2]).unwrap()),
            "[1, -2]"
        );
        p[0] = 40;
        assert_eq!(p.first(), Some(&40));
        assert_ne!(Point::<i64>::from_slice(&[0]), Point::from_slice(&[0, 0]));
    }
}
