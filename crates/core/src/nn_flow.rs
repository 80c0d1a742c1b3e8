//! Case-study-2 orchestration: approximate MAC units for NN classifiers.
//!
//! Mirrors the paper's §V pipeline end to end: train a float network on a
//! digit dataset, quantize it to 8-bit dynamic fixed point, measure the
//! quantized weight distribution (the `D` of WMED, Fig. 6 top), then score
//! candidate approximate multipliers by classification accuracy before and
//! after fine-tuning (Table I, Fig. 7).

use apx_arith::OpTable;
use apx_datasets::{mnist_like, svhn_like, Dataset};
use apx_dist::Pmf;
use apx_nn::{finetune, train, weight_pmf, FinetuneConfig, Network, QuantizedNetwork, TrainConfig};
use apx_rng::Xoshiro256;

/// Which reference classifier to prepare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// MLP (784-`hidden`-10) on the MNIST-like set.
    Mlp {
        /// Hidden-layer width (the paper uses 300).
        hidden: usize,
    },
    /// LeNet-5 variant on the SVHN-like 32×32 set.
    LeNet,
}

/// Scale parameters of a case study (sized down from the paper's full
/// datasets so experiments finish in minutes; everything is a knob).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseConfig {
    /// Classifier architecture.
    pub kind: CaseKind,
    /// Training samples.
    pub train_n: usize,
    /// Held-out test samples.
    pub test_n: usize,
    /// Calibration samples for quantization (taken from the train set).
    pub calib_n: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Master seed.
    pub seed: u64,
}

/// A fully prepared case study: trained float network, its quantized twin,
/// the measured weight distribution and the datasets.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Trained float network.
    pub net: Network,
    /// Quantized (8-bit) twin.
    pub qnet: QuantizedNetwork,
    /// Distribution of quantized weights — WMED's `D` (Fig. 6 top).
    pub weight_pmf: Pmf,
    /// Training set.
    pub train_set: Dataset,
    /// Held-out test set.
    pub test_set: Dataset,
    /// Calibration subset.
    pub calib: Dataset,
    /// Float accuracy on the test set.
    pub float_accuracy: f64,
    /// Quantized accuracy with the exact 8-bit multiplier (the paper's
    /// 0 %-reference of Table I / Fig. 7).
    pub quantized_accuracy: f64,
}

/// Trains and quantizes a reference classifier.
///
/// # Panics
///
/// Panics if the configuration is degenerate (`train_n == 0`,
/// `calib_n == 0` or `calib_n > train_n`).
#[must_use]
pub fn prepare_case(cfg: &CaseConfig) -> CaseStudy {
    assert!(cfg.train_n > 0 && cfg.test_n > 0, "dataset sizes must be positive");
    assert!(
        cfg.calib_n > 0 && cfg.calib_n <= cfg.train_n,
        "calibration subset must fit in the training set"
    );
    let mut rng = Xoshiro256::from_seed(cfg.seed);
    let (mut net, train_set, test_set) = match cfg.kind {
        CaseKind::Mlp { hidden } => {
            let data = mnist_like(cfg.train_n + cfg.test_n, cfg.seed);
            let (tr, te) = data.split(cfg.train_n);
            (Network::mlp(784, hidden, 10, &mut rng), tr, te)
        }
        CaseKind::LeNet => {
            let data = svhn_like(cfg.train_n + cfg.test_n, cfg.seed);
            let (tr, te) = data.split(cfg.train_n);
            (Network::lenet5(&mut rng), tr, te)
        }
    };
    train(
        &mut net,
        &train_set,
        &TrainConfig { epochs: cfg.epochs, lr: cfg.lr, seed: cfg.seed, ..Default::default() },
    );
    let (calib, _) = train_set.split(cfg.calib_n);
    let qnet = QuantizedNetwork::quantize(&net, &calib);
    let weight_pmf = weight_pmf(&qnet);
    let float_accuracy = net.accuracy(&test_set);
    let exact = OpTable::exact_mul(8, true);
    let quantized_accuracy = qnet.accuracy_with(&test_set, &exact);
    CaseStudy {
        net,
        qnet,
        weight_pmf,
        train_set,
        test_set,
        calib,
        float_accuracy,
        quantized_accuracy,
    }
}

/// Accuracy of one approximate multiplier inside the classifier, before
/// and after fine-tuning (one row of Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplierAccuracy {
    /// Accuracy with the approximate multiplier, no retraining.
    pub initial: f64,
    /// Accuracy after STE fine-tuning with the multiplier in the loop.
    pub finetuned: f64,
    /// Delta vs. the exact-multiplier quantized network (initial), in
    /// accuracy fraction (negative = degradation, Table I convention).
    pub initial_delta: f64,
    /// Delta vs. the exact-multiplier quantized network (fine-tuned).
    pub finetuned_delta: f64,
}

/// Evaluates `table` inside the case study's classifier; when
/// `finetune_iterations > 0`, also retrains a copy of the float network
/// with the multiplier in the loop (the paper uses 10 iterations).
#[must_use]
pub fn evaluate_multiplier(
    case: &CaseStudy,
    table: &OpTable,
    finetune_iterations: usize,
) -> MultiplierAccuracy {
    let initial = case.qnet.accuracy_with(&case.test_set, table);
    let finetuned = if finetune_iterations == 0 {
        initial
    } else {
        let mut tuned_net = case.net.clone();
        let tuned_q = finetune(
            &mut tuned_net,
            &case.calib,
            table,
            &case.train_set,
            &FinetuneConfig { iterations: finetune_iterations, lr: 0.01, ..Default::default() },
        );
        tuned_q.accuracy_with(&case.test_set, table)
    };
    MultiplierAccuracy {
        initial,
        finetuned,
        initial_delta: initial - case.quantized_accuracy,
        finetuned_delta: finetuned - case.quantized_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_arith::baugh_wooley_broken;

    fn tiny_mlp_case() -> CaseStudy {
        prepare_case(&CaseConfig {
            kind: CaseKind::Mlp { hidden: 24 },
            train_n: 300,
            test_n: 100,
            calib_n: 32,
            epochs: 12,
            lr: 0.03,
            seed: 5,
        })
    }

    #[test]
    fn prepared_case_learns_and_quantizes() {
        let case = tiny_mlp_case();
        assert!(case.float_accuracy > 0.7, "float acc {}", case.float_accuracy);
        assert!(
            case.quantized_accuracy > case.float_accuracy - 0.08,
            "quantization drop too large: {} vs {}",
            case.quantized_accuracy,
            case.float_accuracy
        );
        // NN weight distributions concentrate around zero (Fig. 6 top).
        assert!(case.weight_pmf.prob_of(0) > case.weight_pmf.prob_of(80));
    }

    #[test]
    fn exact_multiplier_reproduces_reference() {
        let case = tiny_mlp_case();
        let exact = OpTable::exact_mul(8, true);
        let acc = evaluate_multiplier(&case, &exact, 0);
        assert_eq!(acc.initial, case.quantized_accuracy);
        assert_eq!(acc.initial_delta, 0.0);
        assert_eq!(acc.finetuned, acc.initial, "no finetuning requested");
    }

    #[test]
    fn zero_guard_helps_nn_accuracy() {
        // The paper's observation [6]: exact-by-zero matters because most
        // weights are zero-ish.
        let case = tiny_mlp_case();
        let base = OpTable::from_netlist(&baugh_wooley_broken(8, 8, 8), 8, true).unwrap();
        let guarded = base.with_zero_guard();
        let acc_base = evaluate_multiplier(&case, &base, 0);
        let acc_guarded = evaluate_multiplier(&case, &guarded, 0);
        assert!(
            acc_guarded.initial >= acc_base.initial,
            "guarded {} vs base {}",
            acc_guarded.initial,
            acc_base.initial
        );
    }

    #[test]
    #[should_panic(expected = "calibration subset")]
    fn bad_calibration_size_panics() {
        let _ = prepare_case(&CaseConfig {
            kind: CaseKind::Mlp { hidden: 8 },
            train_n: 16,
            test_n: 8,
            calib_n: 0,
            epochs: 1,
            lr: 0.03,
            seed: 1,
        });
    }
}
