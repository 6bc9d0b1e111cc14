//! Persistable per-class bundling state for streaming continual learning.
//!
//! HDC prototype learning is naturally incremental: a class prototype is the
//! elementwise sign of an exact `i32` counter sum over its examples
//! ([`Bundler`]), so folding one more example is *sum + re-sign* — order
//! independent, exact at any count, and bit-reproducible from the counters
//! alone. [`ClassAccumulator`] keeps one such counter state per class label,
//! which is everything a serving layer needs to bundle streamed labeled
//! examples into existing class hypervectors and to resume the stream
//! exactly after a crash: persist the counters, reload them, and the next
//! re-signed prototype is bit-identical to the uninterrupted run.
//!
//! # Example
//!
//! ```
//! use hdc::{BipolarHypervector, ClassAccumulator};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut acc = ClassAccumulator::new(256);
//! for _ in 0..3 {
//!     let example = BipolarHypervector::random(256, &mut rng);
//!     acc.observe("sparrow", &example).unwrap();
//! }
//! let prototype = acc.prototype("sparrow").unwrap();
//! assert_eq!(prototype.dim(), 256);
//! assert_eq!(acc.observations("sparrow"), Some(3));
//! ```

use crate::{BipolarHypervector, Bundler, HdcError};
use serde::{de, json, DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Per-class exact counter state, keyed by label; see the module docs.
///
/// Classes are held in label order (a `BTreeMap`), so iteration — and the
/// serialized form — is deterministic regardless of observation order.
///
/// # Serialization
///
/// Serializes as `{ "dim": …, "classes": [ { "label", "n", "counts" }, … ] }`
/// with classes in label order. Deserialization validates the state: a
/// positive `dim`, per-class counts of exactly `dim` entries, at least one
/// observation per stored class, no count magnitude exceeding the
/// observation count (accumulators only ever fold unit-weight examples), and
/// no duplicate labels.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassAccumulator {
    dim: usize,
    classes: BTreeMap<String, Bundler>,
}

impl ClassAccumulator {
    /// Creates an empty accumulator for hypervectors of dimensionality
    /// `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            classes: BTreeMap::new(),
        }
    }

    /// Dimensionality of the accumulated hypervectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes holding accumulated state.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` when no class has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Returns `true` when `label` holds accumulated state.
    pub fn contains(&self, label: &str) -> bool {
        self.classes.contains_key(label)
    }

    /// The stored labels, in sorted order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.classes.keys().map(String::as_str)
    }

    /// The raw counter state of one class, when it has been observed.
    pub fn counts(&self, label: &str) -> Option<&[i32]> {
        self.classes.get(label).map(Bundler::counts)
    }

    /// How many examples `label` has folded in, when it has been observed.
    pub fn observations(&self, label: &str) -> Option<usize> {
        self.classes.get(label).map(Bundler::len)
    }

    /// Folds one example into `label`'s counters, creating the class state
    /// on first observation. Exact integer addition: any permutation of the
    /// same examples yields identical counters.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the example's
    /// dimensionality differs from the accumulator's.
    pub fn observe(
        &mut self,
        label: impl Into<String>,
        example: &BipolarHypervector,
    ) -> Result<(), HdcError> {
        if example.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: example.dim(),
            });
        }
        let dim = self.dim;
        self.classes
            .entry(label.into())
            .or_insert_with(|| Bundler::new(dim))
            .try_add(example)
    }

    /// Re-signs `label`'s counters into its current prototype (exact ties
    /// broken by the bundler's deterministic tie-break hypervector), or
    /// `None` when the class has no accumulated state.
    pub fn prototype(&self, label: &str) -> Option<BipolarHypervector> {
        self.classes
            .get(label)
            .map(|b| b.try_finish().expect("stored class state is non-empty"))
    }

    /// Drops `label`'s accumulated state, returning whether it existed.
    pub fn remove(&mut self, label: &str) -> bool {
        self.classes.remove(label).is_some()
    }

    /// Drops every class's accumulated state (e.g. after a full model swap
    /// invalidates the prototypes the counters were seeded from).
    pub fn clear(&mut self) {
        self.classes.clear();
    }

    /// Merges another accumulator into this one, class by class
    /// ([`Bundler::merge`]): the result is as if every example observed by
    /// `other` had been observed here instead.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the dimensionalities
    /// differ; nothing is merged then.
    pub fn merge(&mut self, other: &ClassAccumulator) -> Result<(), HdcError> {
        if other.dim != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
            });
        }
        let dim = self.dim;
        for (label, bundler) in &other.classes {
            self.classes
                .entry(label.clone())
                .or_insert_with(|| Bundler::new(dim))
                .try_merge(bundler)?;
        }
        Ok(())
    }
}

impl Serialize for ClassAccumulator {
    fn to_value(&self) -> Value {
        serde_json::to_value_via_text(self)
    }

    /// Writes the counters straight from the bundlers, with no copy.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"dim\":");
        self.dim.write_json(out);
        out.push_str(",\"classes\":[");
        for (i, (label, bundler)) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut class = json::Object::new(out);
            class
                .field("label", label)
                .field("n", &bundler.len())
                .field("counts", bundler.counts());
            class.end();
        }
        out.push_str("]}");
    }
}

/// Read straight from the text: each class's counters go into its
/// bundler's `Vec<i32>` with no copy, and are checked as they arrive.
impl Deserialize for ClassAccumulator {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        serde_json::from_value_via_text(value)
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, json::Error> {
        const TYPE: &str = "ClassAccumulator";
        // The classes are checked against `dim`: read at once when `dim`
        // came first (as the writer puts it), else kept to read after it.
        enum Classes<'a> {
            Read(BTreeMap<String, Bundler>),
            Later(json::Reader<'a>),
        }
        let (mut dim, mut classes) = (None, None);
        r.begin_object().map_err(|e| e.in_field(TYPE))?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "dim" => r.field(&mut dim, "dim")?,
                "classes" => r.field_with(&mut classes, "classes", |r| match dim {
                    Some(dim) => read_classes(r, dim).map(Classes::Read),
                    None => r.defer().map(Classes::Later),
                })?,
                _ => r.skip()?,
            }
        }
        let dim: usize = de::required(dim, "dim", TYPE)?;
        let classes = match de::required(classes, "classes", TYPE)? {
            Classes::Read(classes) => classes,
            Classes::Later(mut r) => {
                read_classes(&mut r, dim).map_err(|e| e.in_field("classes"))?
            }
        };
        Ok(Self { dim, classes })
    }
}

/// The `classes` array of a serialized accumulator of dimensionality
/// `dim`, which must be positive; no label twice.
fn read_classes(
    r: &mut json::Reader<'_>,
    dim: usize,
) -> Result<BTreeMap<String, Bundler>, json::Error> {
    if dim == 0 {
        return Err(DeError::new("accumulator dimensionality must be positive").into());
    }
    let tie_break_seed = Bundler::new(dim).tie_break_seed();
    let mut classes = BTreeMap::new();
    r.begin_array()?;
    while r.next_item()? {
        let (label, bundler) = read_class(r, dim, tie_break_seed)?;
        if classes.contains_key(&label) {
            return Err(DeError::new(format!("duplicate class `{label}`")).into());
        }
        classes.insert(label, bundler);
    }
    Ok(classes)
}

/// One `{label, n, counts}` entry of a serialized accumulator, checked:
/// `dim` counts, at least one observation, and no count magnitude above
/// it (unit-weight folds bound every counter by the observation count, so
/// state outside that envelope cannot have come from an accumulator).
fn read_class(
    r: &mut json::Reader<'_>,
    dim: usize,
    tie_break_seed: u64,
) -> Result<(String, Bundler), json::Error> {
    const TYPE: &str = "ClassAccumulator class";
    let (mut label, mut n, mut counts) = (None, None, None);
    r.begin_object().map_err(|e| e.in_field(TYPE))?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "label" => r.field(&mut label, "label")?,
            "n" => r.field(&mut n, "n")?,
            "counts" => r.field(&mut counts, "counts")?,
            _ => r.skip()?,
        }
    }
    let label: String = de::required(label, "label", TYPE)?;
    let n: usize = de::required(n, "n", TYPE)?;
    let counts: Vec<i32> = de::required(counts, "counts", TYPE)?;
    let invalid = |message: String| Err(DeError::new(message).into());
    if counts.len() != dim {
        return invalid(format!(
            "class `{label}` carries {} counts for dimensionality {dim}",
            counts.len()
        ));
    }
    if n == 0 {
        return invalid(format!(
            "class `{label}` stores state without any observation"
        ));
    }
    let bound = u32::try_from(n).unwrap_or(u32::MAX);
    if counts.iter().any(|c| c.unsigned_abs() > bound) {
        return invalid(format!(
            "class `{label}` carries a count exceeding its {n} observations"
        ));
    }
    let bundler =
        Bundler::from_parts(counts, n, tie_break_seed).map_err(|e| DeError::new(e.to_string()))?;
    Ok((label, bundler))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_examples(n: usize, dim: usize, seed: u64) -> Vec<BipolarHypervector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| BipolarHypervector::random(dim, &mut rng))
            .collect()
    }

    #[test]
    fn observe_is_order_independent() {
        let examples = random_examples(6, 128, 10);
        let mut forward = ClassAccumulator::new(128);
        let mut backward = ClassAccumulator::new(128);
        for hv in &examples {
            forward.observe("c", hv).expect("same dim");
        }
        for hv in examples.iter().rev() {
            backward.observe("c", hv).expect("same dim");
        }
        assert_eq!(forward.counts("c"), backward.counts("c"));
        assert_eq!(forward.prototype("c"), backward.prototype("c"));
    }

    #[test]
    fn prototype_matches_direct_bundling() {
        let examples = random_examples(5, 512, 11);
        let mut acc = ClassAccumulator::new(512);
        for hv in &examples {
            acc.observe("c", hv).expect("same dim");
        }
        let direct = crate::bundler::bundle_bipolar(&examples).expect("non-empty");
        assert_eq!(acc.prototype("c").expect("observed"), direct);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut acc = ClassAccumulator::new(64);
        let wrong = BipolarHypervector::ones(32);
        assert!(matches!(
            acc.observe("c", &wrong),
            Err(HdcError::DimensionMismatch {
                left: 64,
                right: 32
            })
        ));
        assert!(acc.is_empty());
    }

    #[test]
    fn remove_and_clear_drop_state() {
        let examples = random_examples(2, 64, 12);
        let mut acc = ClassAccumulator::new(64);
        acc.observe("a", &examples[0]).expect("same dim");
        acc.observe("b", &examples[1]).expect("same dim");
        assert_eq!(acc.len(), 2);
        assert!(acc.remove("a"));
        assert!(!acc.remove("a"));
        assert!(acc.contains("b"));
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.prototype("b"), None);
    }

    #[test]
    fn merge_matches_single_stream() {
        let examples = random_examples(8, 128, 13);
        let mut whole = ClassAccumulator::new(128);
        let mut left = ClassAccumulator::new(128);
        let mut right = ClassAccumulator::new(128);
        for (i, hv) in examples.iter().enumerate() {
            let label = if i % 2 == 0 { "even" } else { "odd" };
            whole.observe(label, hv).expect("same dim");
            let half = if i < 4 { &mut left } else { &mut right };
            half.observe(label, hv).expect("same dim");
        }
        left.merge(&right).expect("same dim");
        for label in ["even", "odd"] {
            assert_eq!(left.counts(label), whole.counts(label));
            assert_eq!(left.observations(label), whole.observations(label));
        }
        let mut wrong = ClassAccumulator::new(64);
        assert!(wrong.merge(&whole).is_err());
    }

    /// The streaming writer emits exactly the text of the value tree and
    /// the layout fixed before it: empty, and with escaped labels and
    /// negative counters.
    #[test]
    fn writer_matches_the_value_rendering() {
        let mut acc = ClassAccumulator::new(4);
        let down = BipolarHypervector::from_signs(&[-1, -1, 1, -1]);
        let up = BipolarHypervector::from_signs(&[1, -1, 1, 1]);
        acc.observe("é \"q\"\u{1f}", &down).expect("same dim");
        acc.observe("é \"q\"\u{1f}", &down).expect("same dim");
        acc.observe("b", &up).expect("same dim");
        let cases = [
            (ClassAccumulator::new(4), r#"{"dim":4,"classes":[]}"#),
            (
                acc,
                r#"{"dim":4,"classes":[{"label":"b","n":1,"counts":[1,-1,1,1]},{"label":"é \"q\"\u001f","n":2,"counts":[-2,-2,2,-2]}]}"#,
            ),
        ];
        for (acc, expected) in cases {
            let text = serde_json::to_string(&acc).expect("writes");
            assert_eq!(text, expected);
            assert_eq!(
                text,
                serde_json::to_string(&acc.to_value()).expect("renders")
            );
        }
    }

    #[test]
    fn serde_round_trip_is_bit_exact() {
        let examples = random_examples(7, 96, 14);
        let mut acc = ClassAccumulator::new(96);
        for (i, hv) in examples.iter().enumerate() {
            acc.observe(format!("class_{}", i % 3), hv).expect("dim");
        }
        let json = serde_json::to_string(&acc.to_value()).expect("serializable");
        let value = serde_json::parse_value(&json).expect("valid JSON");
        let restored = ClassAccumulator::from_value(&value).expect("valid state");
        assert_eq!(restored.dim(), acc.dim());
        assert_eq!(restored.len(), acc.len());
        for label in ["class_0", "class_1", "class_2"] {
            assert_eq!(restored.counts(label), acc.counts(label));
            assert_eq!(restored.observations(label), acc.observations(label));
            assert_eq!(restored.prototype(label), acc.prototype(label));
        }
    }

    #[test]
    fn deserialization_validates_state() {
        let examples = random_examples(1, 8, 15);
        let mut acc = ClassAccumulator::new(8);
        acc.observe("c", &examples[0]).expect("dim");
        let good = acc.to_value();
        let corrupt = |edit: &dyn Fn(&mut Value)| {
            let mut v = good.clone();
            edit(&mut v);
            ClassAccumulator::from_value(&v)
        };
        // A count magnitude past the observation total is impossible state.
        assert!(corrupt(&|v| set_count(v, 5.0)).is_err());
        // Zero observations cannot hold state.
        assert!(corrupt(&|v| set_class_field(v, "n", Value::Number(0.0))).is_err());
        // Counts must match the declared dimensionality.
        assert!(
            corrupt(&|v| set_class_field(v, "counts", Value::Array(vec![Value::Number(1.0)])))
                .is_err()
        );
        // Dimensionality must be positive.
        assert!(corrupt(&|v| set_field(v, "dim", Value::Number(0.0))).is_err());
        // The untouched document still loads.
        assert!(ClassAccumulator::from_value(&good).is_ok());
    }

    fn set_field(value: &mut Value, name: &str, to: Value) {
        let Value::Object(entries) = value else {
            panic!("expected object")
        };
        for (k, v) in entries {
            if k == name {
                *v = to;
                return;
            }
        }
        panic!("field `{name}` not found");
    }

    fn set_class_field(value: &mut Value, name: &str, to: Value) {
        let Value::Object(entries) = value else {
            panic!("expected object")
        };
        for (k, v) in entries {
            if k == "classes" {
                let Value::Array(items) = v else {
                    panic!("expected array")
                };
                set_field(&mut items[0], name, to);
                return;
            }
        }
        panic!("classes not found");
    }

    fn set_count(value: &mut Value, to: f64) {
        set_class_field(value, "counts", Value::Array(vec![Value::Number(to); 8]));
    }
}
