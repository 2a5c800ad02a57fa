//! Boolean circuit representation and plaintext evaluation.
//!
//! Circuits are gate lists in topological order over a flat wire space.
//! Wires are created by [`crate::builder::CircuitBuilder`]; inputs are
//! split between the **garbler** (the database server) and the
//! **evaluator** (the querying client), matching Yao's two-party setting.

/// A wire identifier (index into the circuit's wire space).
pub type WireId = usize;

/// Binary gate operations supported by the garbling scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateOp {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical XOR.
    Xor,
}

impl GateOp {
    /// Truth-table evaluation.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            GateOp::And => a & b,
            GateOp::Or => a | b,
            GateOp::Xor => a ^ b,
        }
    }
}

/// A two-input gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gate {
    /// Operation.
    pub op: GateOp,
    /// Left input wire.
    pub a: WireId,
    /// Right input wire.
    pub b: WireId,
    /// Output wire.
    pub out: WireId,
}

/// A boolean circuit with two-party input ownership.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    /// Total number of wires.
    pub wire_count: usize,
    /// Wires owned by the garbler (server); values supplied at garble
    /// time.
    pub garbler_inputs: Vec<WireId>,
    /// Wires owned by the evaluator (client); labels fetched via OT.
    pub evaluator_inputs: Vec<WireId>,
    /// Gates in topological order (inputs of gate `i` are input wires or
    /// outputs of gates `< i`).
    pub gates: Vec<Gate>,
    /// Output wires, LSB first for numeric outputs.
    pub outputs: Vec<WireId>,
}

impl Circuit {
    /// Number of AND/OR gates (the expensive ones in most garbling
    /// schemes; here all gates cost one 4-row table, but the split is
    /// still interesting to report).
    pub fn nonlinear_gates(&self) -> usize {
        self.gates.iter().filter(|g| g.op != GateOp::Xor).count()
    }

    /// Plaintext evaluation, for testing and as the correctness oracle.
    ///
    /// `garbler_values[i]` corresponds to `garbler_inputs[i]`, likewise
    /// for the evaluator. Returns output wire values in `outputs` order.
    ///
    /// # Panics
    /// Panics if input lengths disagree with the circuit or a gate reads
    /// an unset wire (builder bugs).
    pub fn eval_plain(&self, garbler_values: &[bool], evaluator_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            garbler_values.len(),
            self.garbler_inputs.len(),
            "garbler input arity"
        );
        assert_eq!(
            evaluator_values.len(),
            self.evaluator_inputs.len(),
            "evaluator input arity"
        );
        let mut wires: Vec<Option<bool>> = vec![None; self.wire_count];
        for (&w, &v) in self.garbler_inputs.iter().zip(garbler_values) {
            wires[w] = Some(v);
        }
        for (&w, &v) in self.evaluator_inputs.iter().zip(evaluator_values) {
            wires[w] = Some(v);
        }
        for g in &self.gates {
            let a = wires[g.a].expect("gate input set (topological order)");
            let b = wires[g.b].expect("gate input set (topological order)");
            wires[g.out] = Some(g.op.eval(a, b));
        }
        self.outputs
            .iter()
            .map(|&w| wires[w].expect("output wire set"))
            .collect()
    }
}

/// Converts a little-endian bit vector into a u128.
pub fn bits_to_u128(bits: &[bool]) -> u128 {
    bits.iter()
        .enumerate()
        .fold(0u128, |acc, (i, &b)| acc | ((b as u128) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_ops() {
        assert!(GateOp::And.eval(true, true));
        assert!(!GateOp::And.eval(true, false));
        assert!(GateOp::Or.eval(true, false));
        assert!(!GateOp::Or.eval(false, false));
        assert!(GateOp::Xor.eval(true, false));
        assert!(!GateOp::Xor.eval(true, true));
    }

    #[test]
    fn bit_codecs() {
        assert_eq!(bits_to_u128(&[true, false, true]), 0b101);
        assert_eq!(bits_to_u128(&[false; 4]), 0);
        assert_eq!(bits_to_u128(&[]), 0);
        let mut top = vec![false; 128];
        top[127] = true;
        assert_eq!(bits_to_u128(&top), 1 << 127);
    }

    #[test]
    fn manual_circuit_eval() {
        // out = (g0 AND e0) XOR e1.
        let c = Circuit {
            wire_count: 5,
            garbler_inputs: vec![0],
            evaluator_inputs: vec![1, 2],
            gates: vec![
                Gate {
                    op: GateOp::And,
                    a: 0,
                    b: 1,
                    out: 3,
                },
                Gate {
                    op: GateOp::Xor,
                    a: 3,
                    b: 2,
                    out: 4,
                },
            ],
            outputs: vec![4],
        };
        for g0 in [false, true] {
            for e0 in [false, true] {
                for e1 in [false, true] {
                    let out = c.eval_plain(&[g0], &[e0, e1]);
                    assert_eq!(out, vec![(g0 & e0) ^ e1]);
                }
            }
        }
        assert_eq!(c.nonlinear_gates(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_input_arity_panics() {
        let c = Circuit {
            wire_count: 1,
            garbler_inputs: vec![0],
            ..Default::default()
        };
        let _ = c.eval_plain(&[], &[]);
    }
}
