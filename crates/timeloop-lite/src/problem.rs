//! Workload descriptions: the MLP layers as GEMM problems.

/// A dense matrix multiply `C[M,N] = A[M,K] x B[K,N]`.
///
/// For a bias-free MLP layer over a batch: `M` = batch size, `N` =
/// output neurons, `K` = input neurons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gemm {
    /// Batch dimension.
    pub m: u64,
    /// Output-neuron dimension.
    pub n: u64,
    /// Input-neuron dimension.
    pub k: u64,
}

impl Gemm {
    /// Construct, validating non-zero dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(m: u64, n: u64, k: u64) -> Self {
        assert!(m > 0 && n > 0 && k > 0, "gemm dims must be nonzero");
        Gemm { m, n, k }
    }

    /// The GEMM one MLP weight matrix of shape `(rows, cols)` (`y = W x`,
    /// the convention of `ng_neural::mlp::MlpConfig::matrix_shape` and
    /// `ngpc::mlp_layer_shapes`) poses over a batch of queries: `N` =
    /// output neurons = rows, `K` = input neurons = cols.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn from_layer(batch: u64, rows: usize, cols: usize) -> Self {
        Gemm::new(batch, rows as u64, cols as u64)
    }

    /// Total multiply–accumulate operations.
    pub fn macs(&self) -> u64 {
        self.m * self.n * self.k
    }

    /// The layers of a bias-free MLP as GEMMs over a batch.
    pub fn mlp_layers(
        batch: u64,
        input: u64,
        hidden: u64,
        hidden_layers: u64,
        output: u64,
    ) -> Vec<Gemm> {
        assert!(hidden_layers >= 1);
        let mut layers = vec![Gemm::new(batch, hidden, input)];
        for _ in 1..hidden_layers {
            layers.push(Gemm::new(batch, hidden, hidden));
        }
        layers.push(Gemm::new(batch, output, hidden));
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macs_product() {
        assert_eq!(Gemm::new(10, 64, 32).macs(), 10 * 64 * 32);
    }

    #[test]
    fn mlp_layers_shape() {
        // Table I NSDF MLP: 32 -> 64 x4 -> 1.
        let layers = Gemm::mlp_layers(1000, 32, 64, 4, 1);
        assert_eq!(layers.len(), 5);
        assert_eq!(layers[0], Gemm::new(1000, 64, 32));
        assert_eq!(layers[3], Gemm::new(1000, 64, 64));
        assert_eq!(layers[4], Gemm::new(1000, 1, 64));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dim_panics() {
        Gemm::new(0, 1, 1);
    }
}
