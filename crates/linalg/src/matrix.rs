//! Dense row-major matrices generic over a scalar field.

use crate::Complex;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// The scalar field a [`Mat`] can be built over.
///
/// This trait is sealed in spirit: the two implementations used by the
/// toolkit are `f64` (dc and moment computations) and [`Complex`]
/// (ac analysis). The `magnitude` method supplies the pivot ordering for
/// LU with partial pivoting.
pub trait Scalar:
    Copy
    + PartialEq
    + Default
    + fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Absolute value used for pivot selection.
    fn magnitude(self) -> f64;
    /// Lifts a real number into the field.
    fn from_f64(x: f64) -> Self;
    /// `true` when the value is NaN/infinite in any component.
    fn is_bad(self) -> bool;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn from_f64(x: f64) -> f64 {
        x
    }
    #[inline]
    fn is_bad(self) -> bool {
        !self.is_finite()
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    const ONE: Complex = Complex::ONE;
    #[inline]
    fn magnitude(self) -> f64 {
        self.norm()
    }
    #[inline]
    fn from_f64(x: f64) -> Complex {
        Complex::from_real(x)
    }
    #[inline]
    fn is_bad(self) -> bool {
        Complex::is_bad(self)
    }
}

/// A dense row-major matrix.
///
/// # Examples
///
/// ```
/// use oblx_linalg::Mat;
///
/// let mut a = Mat::<f64>::zeros(2, 2);
/// a[(0, 0)] = 1.0;
/// a[(1, 1)] = 2.0;
/// let v = a.mul_vec(&[3.0, 4.0]);
/// assert_eq!(v, vec![3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Mat::from_rows");
            data.extend_from_slice(row);
        }
        Mat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access without bounds-check sugar.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[r * self.cols + c]
    }

    /// Sets every element to zero, retaining the allocation.
    pub fn clear(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Adds `v` to element `(r, c)` — the MNA "stamp" primitive.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: T) {
        assert!(r < self.rows && c < self.cols, "stamp out of bounds");
        self.data[r * self.cols + c] += v;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        let mut y = Vec::new();
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product `A·x` into a caller-owned buffer (resized
    /// to `self.rows()`), so repeated products reuse one allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[allow(clippy::needless_range_loop)] // row-slice walk, indexed on purpose
    pub fn mul_vec_into(&self, x: &[T], y: &mut Vec<T>) {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        y.clear();
        y.resize(self.rows, T::ZERO);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = T::ZERO;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            y[r] = acc;
        }
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != b.rows()`.
    pub fn mul_mat(&self, b: &Mat<T>) -> Mat<T> {
        assert_eq!(self.cols, b.rows, "dimension mismatch in mul_mat");
        let mut out = Mat::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == T::ZERO {
                    continue;
                }
                for j in 0..b.cols {
                    out.data[i * b.cols + j] += aik * b.get(k, j);
                }
            }
        }
        out
    }

    /// Converts into another scalar field element-wise.
    pub fn map<U: Scalar>(&self, f: impl Fn(T) -> U) -> Mat<U> {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// The raw row-major data slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Returns `true` if any entry is NaN or infinite.
    pub fn has_bad_values(&self) -> bool {
        self.data.iter().any(|x| x.is_bad())
    }
}

impl Mat<f64> {
    /// Lifts a real matrix into the complex field.
    pub fn to_complex(&self) -> Mat<Complex> {
        self.map(Complex::from_real)
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> fmt::Display for Mat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Mat::identity(2);
        assert_eq!(a.mul_mat(&i), a);
        assert_eq!(i.mul_mat(&a), a);
    }

    #[test]
    fn mul_vec_matches_by_hand() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn stamping_accumulates() {
        let mut g = Mat::<f64>::zeros(2, 2);
        g.add_at(0, 0, 1.0);
        g.add_at(0, 0, 2.5);
        assert_eq!(g[(0, 0)], 3.5);
    }

    #[test]
    fn complex_lift() {
        let a = Mat::from_rows(&[&[1.0, -2.0]]);
        let c = a.to_complex();
        assert_eq!(c[(0, 1)], Complex::new(-2.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "stamp out of bounds")]
    fn stamp_out_of_bounds_panics() {
        let mut g = Mat::<f64>::zeros(1, 1);
        g.add_at(1, 0, 1.0);
    }

    #[test]
    fn bad_value_detection() {
        let mut a = Mat::<f64>::zeros(2, 2);
        assert!(!a.has_bad_values());
        a[(1, 1)] = f64::NAN;
        assert!(a.has_bad_values());
    }
}
