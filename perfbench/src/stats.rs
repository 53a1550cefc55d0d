//! Order statistics over timing samples.

/// The fewest samples that must lie beyond a reported percentile: with fewer,
/// the percentile is set by a handful of outliers and moves from run to run.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` in (0, 1) of `values`, refused (`Err`) unless
/// at least [`MIN_BEYOND`] samples lie above it.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    let v = sorted(values);
    let n = v.len();
    let rank = (q * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    Ok(v[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(
            percentile(&ninety_nine, 0.9).is_err(),
            "99 samples leave 9 beyond p90"
        );
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(89.0));
        assert!(percentile(&hundred, 0.95).is_err());
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&hundred, 1.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
