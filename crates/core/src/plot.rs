//! Terminal plotting: multi-series ASCII scatter/line plots for the
//! figure reports, so latency–load curves are readable without leaving
//! the terminal.

/// One plottable series.
#[derive(Debug, Clone)]
pub struct Series<'a> {
    /// Legend label.
    pub label: &'a str,
    /// `(x, y)` points.
    pub points: &'a [(f64, f64)],
}

const MARKS: &[u8] = b"*o+x#@%&";

const SHADES: &[u8] = b" .:-=+*#%@";

/// Render one value per router on a `k x k` grid (row-major, rows are
/// y), shaded relative to the grid's own maximum, with a header line
/// above and a scale legend (in `unit`) below. The shared renderer
/// behind the measured link-saturation heatmap and the analytic
/// channel-load heatmap.
pub fn ascii_heatmap(header: &str, values: &[f64], k: usize, unit: &str) -> String {
    debug_assert_eq!(values.len(), k * k);
    let max = values.iter().cloned().fold(0.0, f64::max);
    let mut out = format!("{header}\n");
    for y in 0..k {
        out.push_str("  ");
        for x in 0..k {
            let v = values[y * k + x];
            let idx = if max <= 0.0 {
                0
            } else {
                ((v / max) * (SHADES.len() - 1) as f64).round() as usize
            };
            out.push(SHADES[idx.min(SHADES.len() - 1)] as char);
        }
        out.push('\n');
    }
    out.push_str(&format!("  scale: ' ' = idle .. '@' = {max:.3} {unit}\n"));
    out
}

/// Render series into a `width x height` character grid with axes and a
/// legend. Non-finite points are skipped; an empty plot renders a frame.
pub fn ascii_plot(title: &str, series: &[Series<'_>], width: usize, height: usize) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let finite = |v: f64| v.is_finite();
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|&(x, y)| finite(x) && finite(y))
        .collect();

    let (x_min, x_max, y_min, y_max) = if all.is_empty() {
        (0.0, 1.0, 0.0, 1.0)
    } else {
        let x_min = all.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let x_max = all.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        let y_min = all.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let y_max = all.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        // avoid a degenerate range
        let (x_min, x_max) =
            if x_min == x_max { (x_min - 0.5, x_max + 0.5) } else { (x_min, x_max) };
        let (y_min, y_max) =
            if y_min == y_max { (y_min - 0.5, y_max + 0.5) } else { (y_min, y_max) };
        (x_min, x_max, y_min, y_max)
    };

    let mut grid = vec![vec![b' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for &(x, y) in s.points {
            if !finite(x) || !finite(y) {
                continue;
            }
            let cx = ((x - x_min) / (x_max - x_min) * (width - 1) as f64).round() as usize;
            let cy = ((y - y_min) / (y_max - y_min) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = mark;
        }
    }

    let mut out = format!("{title}\n");
    out.push_str(&format!("{y_max:>10.2} +{}+\n", "-".repeat(width)));
    for row in &grid {
        out.push_str("           |");
        out.push_str(std::str::from_utf8(row).expect("ascii grid"));
        out.push_str("|\n");
    }
    out.push_str(&format!("{y_min:>10.2} +{}+\n", "-".repeat(width)));
    out.push_str(&format!(
        "           {:<w$.3}{:>w2$.3}\n",
        x_min,
        x_max,
        w = width / 2 + 1,
        w2 = width / 2 + 1
    ));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{} {}", MARKS[i % MARKS.len()] as char, s.label))
        .collect();
    out.push_str(&format!("           legend: {}\n", legend.join("   ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plot_places_extremes_on_frame() {
        let pts = [(0.0, 0.0), (1.0, 1.0)];
        let p = ascii_plot("t", &[Series { label: "a", points: &pts }], 20, 6);
        let lines: Vec<&str> = p.lines().collect();
        // first grid row holds the max-y point, last holds min-y
        assert!(lines[2].ends_with('|') && lines[2].contains('*'));
        assert!(lines[7].contains('*'));
        assert!(p.contains("legend: * a"));
    }

    #[test]
    fn multiple_series_distinct_marks() {
        let a = [(0.0, 0.0)];
        let b = [(1.0, 1.0)];
        let p = ascii_plot(
            "t",
            &[Series { label: "a", points: &a }, Series { label: "b", points: &b }],
            20,
            6,
        );
        assert!(p.contains('*'));
        assert!(p.contains('o'));
    }

    #[test]
    fn empty_and_degenerate_inputs_are_safe() {
        let p = ascii_plot("t", &[], 20, 6);
        assert!(p.lines().count() >= 8);
        let same = [(2.0, 3.0), (2.0, 3.0)];
        let p = ascii_plot("t", &[Series { label: "s", points: &same }], 20, 6);
        assert!(p.contains('*'));
        let nan = [(f64::NAN, 1.0), (0.5, 0.5)];
        let p = ascii_plot("t", &[Series { label: "n", points: &nan }], 20, 6);
        assert!(p.contains('*'));
    }

    #[test]
    fn respects_minimum_dimensions() {
        let pts = [(0.0, 0.0)];
        let p = ascii_plot("t", &[Series { label: "a", points: &pts }], 1, 1);
        assert!(p.lines().count() >= 6, "clamped to minimum frame");
    }
}
