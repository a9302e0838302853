//! The four STREAM kernels and their accounting rules.

/// One STREAM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = scalar * c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + scalar * c[i]`
    Triad,
}

impl Kernel {
    /// All kernels in the order STREAM runs them.
    pub const ALL: [Kernel; 4] = [Kernel::Copy, Kernel::Scale, Kernel::Add, Kernel::Triad];

    /// Kernel name as STREAM prints it.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Copy => "Copy",
            Kernel::Scale => "Scale",
            Kernel::Add => "Add",
            Kernel::Triad => "Triad",
        }
    }

    /// Which paper figure this kernel's sweep appears in.
    pub fn figure_number(&self) -> u32 {
        match self {
            Kernel::Scale => 5,
            Kernel::Add => 6,
            Kernel::Copy => 7,
            Kernel::Triad => 8,
        }
    }

    /// Bytes read from memory per element (f64 elements, STREAM counting rules).
    pub fn read_bytes_per_element(&self) -> u64 {
        match self {
            Kernel::Copy | Kernel::Scale => 8,
            Kernel::Add | Kernel::Triad => 16,
        }
    }

    /// Bytes written to memory per element.
    pub fn write_bytes_per_element(&self) -> u64 {
        8
    }

    /// Total bytes moved per element (what STREAM divides time by).
    pub fn bytes_per_element(&self) -> u64 {
        self.read_bytes_per_element() + self.write_bytes_per_element()
    }

    /// Floating-point operations per element.
    pub fn flops_per_element(&self) -> u64 {
        match self {
            Kernel::Copy => 0,
            Kernel::Scale => 1,
            Kernel::Add => 1,
            Kernel::Triad => 2,
        }
    }

    /// Parses a kernel name (case-insensitive).
    pub fn parse(name: &str) -> Option<Kernel> {
        match name.to_ascii_lowercase().as_str() {
            "copy" => Some(Kernel::Copy),
            "scale" => Some(Kernel::Scale),
            "add" => Some(Kernel::Add),
            "triad" => Some(Kernel::Triad),
            _ => None,
        }
    }

    /// Which of the three arrays (`a`, `b`, `c`) the kernel reads.
    ///
    /// The zero-copy STREAM-PMem path uses this to stage only the inputs a
    /// chunk actually consumes instead of round-tripping all three arrays.
    pub fn reads(&self) -> (bool, bool, bool) {
        match self {
            Kernel::Copy => (true, false, false),
            Kernel::Scale => (false, false, true),
            Kernel::Add => (true, true, false),
            Kernel::Triad => (false, true, true),
        }
    }

    /// Which array the kernel writes.
    pub fn output(&self) -> StreamArray {
        match self {
            Kernel::Copy | Kernel::Add => StreamArray::C,
            Kernel::Scale => StreamArray::B,
            Kernel::Triad => StreamArray::A,
        }
    }

    /// Applies the kernel to a chunk: `a`, `b`, `c` are same-length slices of
    /// the three STREAM arrays restricted to this chunk.
    ///
    /// The bodies are zipped iterators over exactly the slices each kernel
    /// touches: no index arithmetic, no bounds checks in the loop, and a
    /// shape LLVM autovectorises.
    pub fn apply(&self, a: &mut [f64], b: &mut [f64], c: &mut [f64], scalar: f64) {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), c.len());
        match self {
            Kernel::Copy => {
                for (c, &a) in c.iter_mut().zip(a.iter()) {
                    *c = a;
                }
            }
            Kernel::Scale => {
                for (b, &c) in b.iter_mut().zip(c.iter()) {
                    *b = scalar * c;
                }
            }
            Kernel::Add => {
                for ((c, &a), &b) in c.iter_mut().zip(a.iter()).zip(b.iter()) {
                    *c = a + b;
                }
            }
            Kernel::Triad => {
                for ((a, &b), &c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                    *a = b + scalar * c;
                }
            }
        }
    }

    /// Applies the kernel to a block of the arrays' stored form: `a`, `b`,
    /// `c` are same-length byte slices holding little-endian `f64`s, as
    /// persistent arrays keep them. The App-Direct path computes on its
    /// staged bytes directly instead of decoding them into `f64` scratch
    /// and encoding the result back. Results are bit-identical to
    /// [`apply`](Self::apply).
    pub(crate) fn apply_le(&self, a: &mut [u8], b: &mut [u8], c: &mut [u8], scalar: f64) {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), c.len());
        debug_assert_eq!(a.len() % 8, 0);
        fn lanes(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
            bytes
                .chunks_exact(8)
                .map(|lane| f64::from_le_bytes(lane.try_into().expect("8-byte lane")))
        }
        fn store(out: &mut [u8], value: f64) {
            out.copy_from_slice(&value.to_le_bytes());
        }
        match self {
            Kernel::Copy => c.copy_from_slice(a),
            Kernel::Scale => {
                for (b, c) in b.chunks_exact_mut(8).zip(lanes(c)) {
                    store(b, scalar * c);
                }
            }
            Kernel::Add => {
                for ((c, a), b) in c.chunks_exact_mut(8).zip(lanes(a)).zip(lanes(b)) {
                    store(c, a + b);
                }
            }
            Kernel::Triad => {
                for ((a, b), c) in a.chunks_exact_mut(8).zip(lanes(b)).zip(lanes(c)) {
                    store(a, b + scalar * c);
                }
            }
        }
    }
}

/// Identifies one of the three STREAM arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamArray {
    /// Array `a`.
    A,
    /// Array `b`.
    B,
    /// Array `c`.
    C,
}

/// Configuration of a STREAM run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Elements per array (the paper uses 100 M).
    pub elements: usize,
    /// Number of repetitions of the kernel sequence (STREAM's `NTIMES`).
    pub ntimes: usize,
    /// The Scale/Triad scalar (STREAM uses 3.0).
    pub scalar: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            elements: 1_000_000,
            ntimes: memsim::calibration::STREAM_NTIMES,
            scalar: 3.0,
        }
    }
}

impl StreamConfig {
    /// The paper's configuration: 100 M elements per array.
    pub fn paper() -> Self {
        StreamConfig {
            elements: memsim::calibration::PAPER_STREAM_ELEMENTS,
            ..Self::default()
        }
    }

    /// A small configuration for functional tests.
    pub fn small(elements: usize) -> Self {
        StreamConfig {
            elements,
            ntimes: 3,
            scalar: 3.0,
        }
    }

    /// Total bytes one invocation of `kernel` moves.
    pub fn bytes_per_invocation(&self, kernel: Kernel) -> u64 {
        self.elements as u64 * kernel.bytes_per_element()
    }

    /// Computes the values every element of `a`, `b`, `c` must hold after
    /// `ntimes` repetitions of the Copy→Scale→Add→Triad sequence, starting
    /// from the STREAM initial conditions (a=1, b=2, c=0) — the same check the
    /// reference implementation performs.
    pub fn expected_values(&self) -> (f64, f64, f64) {
        let (mut a, mut b, mut c) = (1.0f64, 2.0f64, 0.0f64);
        // STREAM scales the initial a by 2.0 before the timed loops.
        a *= 2.0;
        for _ in 0..self.ntimes {
            c = a; // Copy
            b = self.scalar * c; // Scale
            c = a + b; // Add
            a = b + self.scalar * c; // Triad
        }
        (a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn names_figures_and_parse_round_trip() {
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::parse(kernel.name()), Some(kernel));
        }
        assert_eq!(Kernel::parse("TRIAD"), Some(Kernel::Triad));
        assert_eq!(Kernel::parse("bogus"), None);
        assert_eq!(Kernel::Scale.figure_number(), 5);
        assert_eq!(Kernel::Add.figure_number(), 6);
        assert_eq!(Kernel::Copy.figure_number(), 7);
        assert_eq!(Kernel::Triad.figure_number(), 8);
    }

    #[test]
    fn byte_accounting_matches_stream_rules() {
        assert_eq!(Kernel::Copy.bytes_per_element(), 16);
        assert_eq!(Kernel::Scale.bytes_per_element(), 16);
        assert_eq!(Kernel::Add.bytes_per_element(), 24);
        assert_eq!(Kernel::Triad.bytes_per_element(), 24);
        assert_eq!(Kernel::Triad.flops_per_element(), 2);
        assert_eq!(Kernel::Copy.flops_per_element(), 0);
        let config = StreamConfig::small(1000);
        assert_eq!(config.bytes_per_invocation(Kernel::Add), 24_000);
    }

    #[test]
    fn kernels_compute_the_right_values() {
        let scalar = 3.0;
        let mut a = vec![2.0; 8];
        let mut b = vec![0.5; 8];
        let mut c = vec![0.0; 8];
        Kernel::Copy.apply(&mut a, &mut b, &mut c, scalar);
        assert!(c.iter().all(|&x| x == 2.0));
        Kernel::Scale.apply(&mut a, &mut b, &mut c, scalar);
        assert!(b.iter().all(|&x| x == 6.0));
        Kernel::Add.apply(&mut a, &mut b, &mut c, scalar);
        assert!(c.iter().all(|&x| x == 8.0));
        Kernel::Triad.apply(&mut a, &mut b, &mut c, scalar);
        assert!(a.iter().all(|&x| x == 6.0 + 3.0 * 8.0));
    }

    #[test]
    fn expected_values_match_a_manual_simulation() {
        let config = StreamConfig::small(4);
        let (ea, eb, ec) = config.expected_values();
        // Manually run the sequence on full (tiny) arrays.
        let mut a = vec![2.0f64; 4];
        let mut b = vec![2.0f64; 4];
        let mut c = vec![0.0f64; 4];
        // STREAM initialisation: a = 1 * 2.0, b = 2, c = 0.
        for x in b.iter_mut() {
            *x = 2.0;
        }
        for _ in 0..config.ntimes {
            for k in Kernel::ALL {
                k.apply(&mut a, &mut b, &mut c, config.scalar);
            }
        }
        assert!((a[0] - ea).abs() < 1e-9 * ea.abs());
        assert!((b[0] - eb).abs() < 1e-9 * eb.abs());
        assert!((c[0] - ec).abs() < 1e-9 * ec.abs());
    }

    #[test]
    fn paper_config_uses_100m_elements() {
        assert_eq!(StreamConfig::paper().elements, 100_000_000);
        assert_eq!(StreamConfig::default().scalar, 3.0);
    }

    fn encode(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    proptest! {
        #[test]
        fn prop_le_kernels_match_typed_kernels_bit_for_bit(
            values in proptest::collection::vec(-1e6f64..1e6, 3..300),
            scalar in 0.5f64..4.0,
        ) {
            let len = values.len() / 3;
            let (a0, b0, c0) = (&values[..len], &values[len..2 * len], &values[2 * len..3 * len]);
            for kernel in Kernel::ALL {
                let (mut a1, mut b1, mut c1) = (a0.to_vec(), b0.to_vec(), c0.to_vec());
                kernel.apply(&mut a1, &mut b1, &mut c1, scalar);
                let (mut a2, mut b2, mut c2) = (encode(a0), encode(b0), encode(c0));
                kernel.apply_le(&mut a2, &mut b2, &mut c2, scalar);
                prop_assert_eq!(encode(&a1), a2);
                prop_assert_eq!(encode(&b1), b2);
                prop_assert_eq!(encode(&c1), c2);
            }
        }

        #[test]
        fn prop_kernels_are_elementwise(len in 1usize..100, scalar in 0.5f64..4.0) {
            // Applying a kernel to the whole array equals applying it chunk by chunk.
            let a0: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let b0: Vec<f64> = (0..len).map(|i| (i * 2) as f64).collect();
            let c0: Vec<f64> = (0..len).map(|i| (i * 3) as f64).collect();
            for kernel in Kernel::ALL {
                let (mut a1, mut b1, mut c1) = (a0.clone(), b0.clone(), c0.clone());
                kernel.apply(&mut a1, &mut b1, &mut c1, scalar);
                let (mut a2, mut b2, mut c2) = (a0.clone(), b0.clone(), c0.clone());
                let mid = len / 2;
                let (al, ar) = a2.split_at_mut(mid);
                let (bl, br) = b2.split_at_mut(mid);
                let (cl, cr) = c2.split_at_mut(mid);
                kernel.apply(al, bl, cl, scalar);
                kernel.apply(ar, br, cr, scalar);
                prop_assert_eq!(a1, a2);
                prop_assert_eq!(b1, b2);
                prop_assert_eq!(c1, c2);
            }
        }
    }
}
