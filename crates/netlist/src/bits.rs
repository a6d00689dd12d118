//! Packed bit matrices: the one layout behind every set of bits the pipeline
//! keeps — scan-input supports, witness rows, the compatibility adjacency and
//! the agent's allowed set.

/// A `rows × cols` matrix of bits, each row a run of `u64` words.
///
/// Bit `j` of row `i` is bit `j % 64` of word `j / 64` of [`BitMatrix::row`]
/// `i`. Bits past `cols` in a row's last word (padding) are always zero, so
/// word-wise intersections and popcounts never see them.
///
/// # Panics
///
/// Every method that takes a row or column index panics when it is out of
/// range, and every method that takes a second matrix panics when the
/// column counts differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    /// Words per row: `cols.div_ceil(64)`.
    stride: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero matrix.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::from_words(rows, cols, vec![0; rows * cols.div_ceil(64)])
    }

    /// A matrix over row-major `words`, `cols.div_ceil(64)` to a row — the
    /// inverse of [`BitMatrix::words`].
    ///
    /// # Panics
    ///
    /// Panics if `words` does not hold `rows` rows, or if a padding bit is
    /// set.
    #[must_use]
    pub fn from_words(rows: usize, cols: usize, words: Vec<u64>) -> Self {
        let stride = cols.div_ceil(64);
        let shape = rows.checked_mul(stride);
        assert_eq!(Some(words.len()), shape, "words must be rows x stride");
        let padding = !last_word_mask(cols);
        // Only the last word of each row has padding bits.
        assert!(
            words
                .iter()
                .skip(stride.wrapping_sub(1))
                .step_by(stride.max(1))
                .all(|w| w & padding == 0),
            "padding bits must be zero"
        );
        Self {
            rows,
            cols,
            stride,
            words,
        }
    }

    /// All words, row-major.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bits per row).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The words of row `i`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.rows, "row {i} out of range");
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        assert!(i < self.rows, "row {i} out of range");
        &mut self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Bit `j` of row `i`.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(j < self.cols, "column {j} out of range");
        self.row(i)[j / 64] >> (j % 64) & 1 == 1
    }

    /// Sets bit `j` of row `i` to `value`.
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        assert!(j < self.cols, "column {j} out of range");
        let word = &mut self.row_mut(i)[j / 64];
        *word = *word & !(1 << (j % 64)) | u64::from(value) << (j % 64);
    }

    /// Number of set bits in row `i`.
    #[must_use]
    pub fn count(&self, i: usize) -> usize {
        self.row(i).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether rows `i` and `j` share a set bit.
    #[must_use]
    pub fn intersects(&self, i: usize, j: usize) -> bool {
        let (a, b) = (self.row(i), self.row(j));
        a.iter().zip(b).any(|(&x, &y)| x & y != 0)
    }

    /// Number of set bits in the union of rows `i` and `j`.
    #[must_use]
    pub fn union_count(&self, i: usize, j: usize) -> usize {
        let (a, b) = (self.row(i), self.row(j));
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x | y).count_ones() as usize)
            .sum()
    }

    /// The columns set in row `i` or row `j`, ascending.
    #[must_use]
    pub fn union_ones(&self, i: usize, j: usize) -> Vec<usize> {
        let mut ones = Vec::new();
        for (block, (&x, &y)) in self.row(i).iter().zip(self.row(j)).enumerate() {
            let mut word = x | y;
            while word != 0 {
                ones.push(block * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        ones
    }

    /// Overwrites row `i` with row `k` of `src`.
    pub fn copy_row(&mut self, i: usize, src: &BitMatrix, k: usize) {
        assert_eq!(self.cols, src.cols, "column counts differ");
        self.row_mut(i).copy_from_slice(src.row(k));
    }

    /// Intersects row `i` with row `k` of `src`.
    pub fn and_row(&mut self, i: usize, src: &BitMatrix, k: usize) {
        assert_eq!(self.cols, src.cols, "column counts differ");
        for (word, &other) in self.row_mut(i).iter_mut().zip(src.row(k)) {
            *word &= other;
        }
    }

    /// Row `i` as one `bool` per column.
    #[must_use]
    pub fn row_bools(&self, i: usize) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.cols);
        for &word in self.row(i) {
            let take = (self.cols - out.len()).min(64);
            out.extend((0..take).map(|b| word >> b & 1 == 1));
        }
        out
    }

    /// The matrix as one unpadded row-major stream: bit `i * cols + j` of
    /// the stream (bit `% 64` of word `/ 64`) is bit `j` of row `i`. Bits
    /// past `rows * cols` in the last word are zero.
    #[must_use]
    pub fn to_stream(&self) -> Vec<u64> {
        let mut stream = vec![0u64; (self.rows * self.cols).div_ceil(64)];
        for i in 0..self.rows {
            let (first, shift) = (i * self.cols / 64, i * self.cols % 64);
            for (k, &word) in self.row(i).iter().enumerate() {
                stream[first + k] |= word << shift;
                // A spill past the stream's end is padding, hence zero.
                if let Some(next) = stream.get_mut(first + k + 1).filter(|_| shift > 0) {
                    *next |= word >> (64 - shift);
                }
            }
        }
        stream
    }

    /// The inverse of [`BitMatrix::to_stream`]. Bits past `rows * cols` in
    /// the last word of `stream` are ignored.
    ///
    /// # Panics
    ///
    /// Panics unless `stream` holds exactly `(rows * cols).div_ceil(64)`
    /// words.
    #[must_use]
    pub fn from_stream(rows: usize, cols: usize, stream: &[u64]) -> Self {
        let bits = rows.checked_mul(cols).expect("bit count overflows");
        assert_eq!(stream.len(), bits.div_ceil(64), "stream length");
        let mut matrix = Self::new(rows, cols);
        for i in 0..rows {
            let (first, shift) = (i * cols / 64, i * cols % 64);
            for (k, word) in matrix.row_mut(i).iter_mut().enumerate() {
                let high = stream.get(first + k + 1).filter(|_| shift > 0);
                *word = (stream[first + k] >> shift) | high.map_or(0, |&w| w << (64 - shift));
            }
            if let Some(last) = matrix.row_mut(i).last_mut() {
                *last &= last_word_mask(cols);
            }
        }
        matrix
    }
}

/// The real bits of a row's last word.
fn last_word_mask(cols: usize) -> u64 {
    u64::MAX >> ((64 - cols % 64) % 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random matrix of the given shape.
    fn sample(rows: usize, cols: usize, seed: u64) -> BitMatrix {
        let mut m = BitMatrix::new(rows, cols);
        let mut state = seed | 1;
        for i in 0..rows {
            for j in 0..cols {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                m.set(i, j, state & 3 == 0);
            }
        }
        m
    }

    #[test]
    fn stream_round_trips_and_matches_the_flat_bit_order() {
        for (rows, cols) in [
            (0, 0),
            (0, 5),
            (3, 0),
            (1, 1),
            (5, 7),
            (9, 64),
            (13, 65),
            (70, 70),
        ] {
            let m = sample(rows, cols, (rows * 131 + cols) as u64);
            let stream = m.to_stream();
            assert_eq!(stream.len(), (rows * cols).div_ceil(64));
            for i in 0..rows {
                for j in 0..cols {
                    let k = i * cols + j;
                    assert_eq!(stream[k / 64] >> (k % 64) & 1 == 1, m.get(i, j));
                }
            }
            if let Some(&last) = stream.last() {
                let used = rows * cols - 64 * (stream.len() - 1);
                if used < 64 {
                    assert_eq!(last >> used, 0, "bits past the matrix are zero");
                }
            }
            assert_eq!(
                BitMatrix::from_stream(rows, cols, &stream),
                m,
                "{rows}x{cols}"
            );
        }
    }

    #[test]
    fn from_stream_ignores_bits_past_the_matrix() {
        let m = sample(3, 5, 9);
        let mut stream = m.to_stream();
        stream[0] |= !0u64 << 15;
        let decoded = BitMatrix::from_stream(3, 5, &stream);
        assert_eq!(decoded, m);
        assert!(
            decoded.words().iter().all(|&w| w >> 5 == 0),
            "padding stays zero"
        );
    }

    #[test]
    fn row_operations_agree_with_per_bit_definitions() {
        let m = sample(6, 100, 3);
        for i in 0..6 {
            let bools = m.row_bools(i);
            assert_eq!(bools.len(), 100);
            assert_eq!(m.count(i), bools.iter().filter(|&&b| b).count());
            for j in 0..6 {
                let other = m.row_bools(j);
                let both = bools.iter().zip(&other).any(|(&a, &b)| a && b);
                let union = bools.iter().zip(&other).filter(|&(&a, &b)| a || b).count();
                assert_eq!(m.intersects(i, j), both);
                assert_eq!(m.union_count(i, j), union);
                let ones: Vec<usize> = (0..100).filter(|&c| bools[c] || other[c]).collect();
                assert_eq!(m.union_ones(i, j), ones);
            }
        }
        let mut acc = BitMatrix::new(1, 100);
        acc.copy_row(0, &m, 0);
        acc.and_row(0, &m, 1);
        let expected: Vec<bool> = (0..100).map(|j| m.get(0, j) && m.get(1, j)).collect();
        assert_eq!(acc.row_bools(0), expected);
        acc.set(0, 99, true);
        acc.set(0, 99, false);
        assert!(!acc.get(0, 99));
    }

    #[test]
    fn from_words_is_the_inverse_of_words() {
        let m = sample(4, 130, 5);
        assert_eq!(BitMatrix::from_words(4, 130, m.words().to_vec()), m);
        assert_eq!(m.row(2), &m.words()[6..9]);
    }

    #[test]
    #[should_panic(expected = "padding")]
    fn from_words_rejects_padding_bits() {
        let _ = BitMatrix::from_words(1, 3, vec![0b1000]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_a_column_in_the_padding() {
        let _ = BitMatrix::new(1, 3).get(0, 3);
    }
}
