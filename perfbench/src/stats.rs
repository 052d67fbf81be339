//! Small order statistics over latency samples.

/// The `q`-quantile of `xs` (linear interpolation between closest
/// ranks); `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A sample's size and quartiles, for the run stamp.
pub fn spread(xs: &[f64]) -> (usize, f64, f64, f64) {
    (xs.len(), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75))
}

/// A fast 64-bit content digest (word-at-a-time multiply-rotate), used to
/// compare response bodies with locally computed bytes without keeping
/// either around.
pub fn digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ word).wrapping_mul(PRIME).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn digest_sees_every_byte() {
        let a = b"0123456789abcdef-tail".to_vec();
        let mut b = a.clone();
        b[20] = b'X';
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(b"ab"), digest(b"ab\0"));
    }
}
