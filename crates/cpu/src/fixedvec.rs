//! A tiny inline vector for per-instruction state.
//!
//! Decode used to build a heap `Vec` of operands for every instruction
//! executed; with at most 6 specifiers per VAX instruction the storage
//! fits in a fixed array, so the hot loop never touches the allocator.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A `Vec`-like container with inline storage for up to `N` elements.
#[derive(Clone, Copy)]
pub struct FixedVec<T: Copy + Default, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> FixedVec<T, N> {
    /// An empty vector.
    pub fn new() -> FixedVec<T, N> {
        FixedVec {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// Appends an element.
    ///
    /// # Panics
    ///
    /// Panics if the vector already holds `N` elements; callers size `N`
    /// to an architectural maximum, so overflow is a decoder bug.
    pub fn push(&mut self, item: T) {
        assert!((self.len as usize) < N, "FixedVec overflow (capacity {N})");
        self.items[self.len as usize] = item;
        self.len += 1;
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    fn as_slice(&self) -> &[T] {
        &self.items[..self.len as usize]
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> Default for FixedVec<T, N> {
    fn default() -> FixedVec<T, N> {
        FixedVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for FixedVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for FixedVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for FixedVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for FixedVec<T, N> {
    fn eq(&self, other: &FixedVec<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for FixedVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for FixedVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a FixedVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut v: FixedVec<u32, 4> = FixedVec::new();
        assert!(v.is_empty());
        v.push(3);
        v.push(9);
        assert_eq!(v.len(), 2);
        assert_eq!(v[1], 9);
        assert_eq!(v, vec![3, 9]);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut v: FixedVec<u8, 2> = FixedVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
    }

    #[test]
    fn equality_and_to_vec() {
        let mut a: FixedVec<(u8, u32), 3> = FixedVec::new();
        let mut b: FixedVec<(u8, u32), 3> = FixedVec::new();
        a.push((1, 2));
        b.push((1, 2));
        assert_eq!(a, b);
        b.push((3, 4));
        assert_ne!(a, b);
        assert_eq!(b.to_vec(), vec![(1, 2), (3, 4)]);
    }
}
