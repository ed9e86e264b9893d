//! Named samples collected across repetitions and reported as medians.

/// Samples of named metrics, kept in first-recorded order.
#[derive(Default)]
pub struct Samples {
    rows: Vec<(&'static str, &'static str, Vec<f64>)>,
}

impl Samples {
    /// Records one sample of `name`, measured in `unit`.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        match self.rows.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, u, values)) => {
                assert_eq!(*u, unit, "{name} recorded in two units");
                values.push(value);
            }
            None => self.rows.push((name, unit, vec![value])),
        }
    }

    /// `(name, unit, median)` for every recorded metric.
    pub fn medians(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.rows
            .iter()
            .map(|(name, unit, values)| (*name, *unit, median(values)))
            .collect()
    }
}

/// The median of a non-empty slice (mean of the middle two for even
/// lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let mut s = Samples::default();
        s.push("a", "s", 1.0);
        s.push("b", "ms", 5.0);
        s.push("a", "s", 3.0);
        assert_eq!(s.medians(), vec![("a", "s", 2.0), ("b", "ms", 5.0)]);
    }
}
