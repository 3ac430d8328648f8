//! The line-following perception pipeline (paper Figure 6).
//!
//! The real vehicle captures video with a ZED camera, runs Canny edge
//! detection, applies a region filter, extracts line coordinates with a
//! probabilistic Hough transform, and feeds the Motion Planner which
//! computes a steering angle through a PID controller. This module runs
//! the same stage structure on synthetic frames rendered from the ground
//! truth track geometry:
//!
//! 1. [`CameraModel::capture`] — renders the floor line into a binary
//!    bird's-eye image of the area ahead of the car,
//! 2. [`detect_edges`] — extracts edge pixels (intensity transitions),
//! 3. [`hough_lines`] — a probabilistic Hough vote (random edge-point
//!    subsampling into a (ρ, θ) accumulator, as in Matas et al.),
//! 4. [`LineFollower::steering`] — converts the strongest line into a
//!    lateral error and runs it through the PID.
//!
//! A [`Frame`] is stored as bit rows (`width.div_ceil(64)` `u64` words
//! per row, padding bits clear), so the raster fills runs of columns
//! with word masks and edge detection compares 64 neighbouring pixels
//! per word operation. Every stage reproduces, bit for bit, a plain
//! per-pixel reference kept in the test module.

use crate::dynamics::BicycleState;
use crate::pid::Pid;
use sim_core::SimRng;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::sync::{Mutex, PoisonError};

/// Ground-truth track: a polyline of the tape line on the floor.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    points: Vec<(f64, f64)>,
}

impl Track {
    /// Creates a track from a polyline.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "a track needs at least two points");
        Self { points }
    }

    /// A straight track along +x of the given length.
    pub fn straight(length_m: f64) -> Self {
        Self::new(vec![(0.0, 0.0), (length_m, 0.0)])
    }

    /// An L-shaped track: straight along +x then a corner turning to +y —
    /// the blind-corner intersection geometry. The corner radius (1.5 m)
    /// comfortably exceeds the vehicle's minimum turning radius
    /// (wheelbase 0.32 m / tan 0.35 rad ≈ 0.88 m).
    pub fn l_corner(leg_m: f64) -> Self {
        let mut pts = vec![(0.0, 0.0), (leg_m, 0.0)];
        // Rounded corner with a few knots.
        let r = 1.5;
        for i in 1..=6 {
            let a = std::f64::consts::FRAC_PI_2 * f64::from(i) / 6.0;
            pts.push((leg_m + r * a.sin(), r * (1.0 - a.cos())));
        }
        pts.push((leg_m + r, leg_m + r));
        Self::new(pts)
    }

    /// The polyline points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Distance from an arbitrary point to the nearest track segment.
    pub fn distance_to(&self, x: f64, y: f64) -> f64 {
        self.points
            .windows(2)
            .map(|w| segment_distance(w[0], w[1], (x, y)))
            .fold(f64::INFINITY, f64::min)
    }

    /// Signed lateral offset of a pose from the track: positive when the
    /// track is to the left of the heading direction.
    pub fn lateral_offset(&self, pose: &BicycleState) -> f64 {
        // Find the nearest point on the polyline, then project into the
        // vehicle frame.
        let (nx, ny) = self.nearest_point(pose.x, pose.y);
        let dx = nx - pose.x;
        let dy = ny - pose.y;
        // Left of heading = positive lateral coordinate.
        -dx * pose.theta.sin() + dy * pose.theta.cos()
    }

    /// Nearest point on the polyline to `(x, y)`.
    pub fn nearest_point(&self, x: f64, y: f64) -> (f64, f64) {
        let mut best = (f64::INFINITY, self.points[0]);
        for w in self.points.windows(2) {
            let p = segment_closest(w[0], w[1], (x, y));
            let d = ((p.0 - x).powi(2) + (p.1 - y).powi(2)).sqrt();
            if d < best.0 {
                best = (d, p);
            }
        }
        best.1
    }
}

fn segment_closest(a: (f64, f64), b: (f64, f64), p: (f64, f64)) -> (f64, f64) {
    let abx = b.0 - a.0;
    let aby = b.1 - a.1;
    let len2 = abx * abx + aby * aby;
    if len2 <= 0.0 {
        return a;
    }
    let t = (((p.0 - a.0) * abx + (p.1 - a.1) * aby) / len2).clamp(0.0, 1.0);
    (a.0 + t * abx, a.1 + t * aby)
}

fn segment_distance(a: (f64, f64), b: (f64, f64), p: (f64, f64)) -> f64 {
    let c = segment_closest(a, b, p);
    ((c.0 - p.0).powi(2) + (c.1 - p.1).powi(2)).sqrt()
}

/// A binary camera frame (bird's-eye projection of the floor ahead).
///
/// Pixels are stored as bit rows: each row is `width.div_ceil(64)`
/// `u64` words, column `c` is bit `c % 64` of word `c / 64`, and the
/// bits past `width` in a row's last word are always clear (so frames
/// compare equal exactly when their pixels do).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    bits: Vec<u64>,
}

impl Frame {
    /// An empty frame; [`CameraModel::capture_into`] sizes it.
    fn empty(bits: Vec<u64>) -> Self {
        Self {
            width: 0,
            height: 0,
            bits,
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    fn words_per_row(&self) -> usize {
        self.width.div_ceil(64)
    }

    /// Resizes to `width × height` with every pixel dark.
    fn clear(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.bits.clear();
        self.bits.resize(self.words_per_row() * height, 0);
    }

    /// Pixel at `(row, col)`; row 0 is the far edge of the view.
    ///
    /// # Panics
    ///
    /// Panics if `row >= height` or `col >= width`.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.height && col < self.width,
            "pixel ({row}, {col}) outside a {}×{} frame",
            self.width,
            self.height
        );
        self.bits[row * self.words_per_row() + col / 64] >> (col % 64) & 1 == 1
    }

    /// Lights pixels `lo..=hi` of `row` (all in the frame).
    fn fill(&mut self, row: usize, lo: usize, hi: usize) {
        debug_assert!(
            lo <= hi && hi < self.width,
            "columns {lo}..={hi} of {}",
            self.width
        );
        let start = row * self.words_per_row();
        for w in lo / 64..=hi / 64 {
            let from = if w == lo / 64 { lo % 64 } else { 0 };
            let to = if w == hi / 64 { hi % 64 } else { 63 };
            // Bits from..=to of the word.
            self.bits[start + w] |= (u64::MAX >> (63 - to)) & (u64::MAX << from);
        }
    }

    /// Fraction of lit pixels, useful as a "line visible" heuristic.
    pub fn fill_ratio(&self) -> f64 {
        let lit: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        lit as f64 / (self.width * self.height) as f64
    }
}

/// Projection model of the forward-facing camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraModel {
    /// Image width, pixels.
    pub width: usize,
    /// Image height, pixels.
    pub height: usize,
    /// Near edge of the ground footprint, metres ahead of the rear axle.
    pub near_m: f64,
    /// Far edge of the ground footprint, metres ahead.
    pub far_m: f64,
    /// Half-width of the footprint, metres.
    pub half_width_m: f64,
    /// Painted line width, metres.
    pub line_width_m: f64,
}

impl Default for CameraModel {
    fn default() -> Self {
        Self {
            width: 64,
            height: 32,
            near_m: 0.15,
            far_m: 1.2,
            half_width_m: 0.5,
            line_width_m: 0.05,
        }
    }
}

impl CameraModel {
    /// Lateral metres represented by one pixel column.
    pub fn meters_per_col(&self) -> f64 {
        2.0 * self.half_width_m / self.width as f64
    }

    /// Renders the track as seen from `pose`.
    pub fn capture(&self, pose: &BicycleState, track: &Track) -> Frame {
        let mut frame = Frame::empty(Vec::new());
        self.capture_into(pose, track, &mut frame);
        frame
    }

    /// Renders the track as seen from `pose` into an existing frame,
    /// reusing its bit rows. Produces exactly the pixels of the naive
    /// every-pixel render (pinned bitwise by
    /// `capture_matches_reference_bitwise`), where a pixel is lit iff
    /// `track.distance_to` of its centre is at most half the line width.
    ///
    /// Each image row is one scan line across the ground, and a pixel
    /// can only be lit where that line passes through a track segment's
    /// *capsule* (the segment dilated by the line half-width). Distance
    /// to a segment is 1-Lipschitz, so two capsules 1e-7 m either side of
    /// the half-width — a margin about 10⁸ times the f64 error of the
    /// span and column arithmetic — settle almost every pixel without
    /// the exact test: columns whose centres lie in the inner (core)
    /// span are lit outright, columns outside the outer span stay dark,
    /// and only the columns between the two spans get the exact
    /// `distance_to` test, evaluated with the original expressions.
    pub fn capture_into(&self, pose: &BicycleState, track: &Track, frame: &mut Frame) {
        frame.clear(self.width, self.height);
        let cos_t = pose.theta.cos();
        let sin_t = pose.theta.sin();
        let mpc = self.meters_per_col();
        let half_line = self.line_width_m / 2.0;
        let reach = half_line + 1e-7;
        // No core when the line is at most 1e-7 m wide either side.
        let core = (half_line > 1e-7).then_some(half_line - 1e-7);
        let dir = (-sin_t, cos_t);
        // Columns whose centres (lateral = -half_width + (col+0.5)·mpc)
        // lie in the lateral span `[s_lo, s_hi]`, clipped to the frame.
        let centre_cols = |(s_lo, s_hi): (f64, f64)| {
            let lo = ((s_lo + self.half_width_m) / mpc - 0.5).max(0.0);
            let hi = ((s_hi + self.half_width_m) / mpc - 0.5).min(self.width as f64 - 1.0);
            if lo > hi {
                return None;
            }
            // Both are ≥ 0 here, so `as` truncates to the floor (`ceil`
            // and `floor` are library calls on baseline x86-64).
            let c_lo = lo as usize;
            let c_lo = c_lo + usize::from((c_lo as f64) < lo);
            let c_hi = hi as usize;
            (c_lo <= c_hi).then_some((c_lo, c_hi))
        };
        // Segments outer, rows inner: a pixel is lit iff its exact test
        // passes, whichever segment selected it, so the visiting order
        // cannot change the frame.
        for seg in track.points.windows(2) {
            let capsule = Capsule::new(seg[0], seg[1]);
            for row in 0..self.height {
                // Row 0 = far edge.
                let ahead = self.far_m
                    - (self.far_m - self.near_m) * (row as f64 + 0.5) / self.height as f64;
                // The row's scan line in world space: W(s) = base + s·dir
                // with s the lateral coordinate and dir unit-length.
                let base = (pose.x + ahead * cos_t, pose.y + ahead * sin_t);
                let Some((c_lo, c_hi)) = capsule.span(base, dir, reach).and_then(centre_cols)
                else {
                    continue;
                };
                // An empty core leaves every candidate to the exact test.
                let (k_lo, k_hi) = match core
                    .and_then(|r| capsule.span(base, dir, r))
                    .and_then(centre_cols)
                {
                    Some((k_lo, k_hi)) => {
                        frame.fill(row, k_lo, k_hi);
                        (k_lo, k_hi)
                    }
                    None => (c_hi + 1, c_hi),
                };
                for col in (c_lo..k_lo).chain(k_hi + 1..=c_hi) {
                    if frame.get(row, col) {
                        continue;
                    }
                    let lateral = -self.half_width_m + (col as f64 + 0.5) * mpc;
                    // Vehicle frame → world frame (the reference
                    // expressions, verbatim).
                    let wx = pose.x + ahead * cos_t - lateral * sin_t;
                    let wy = pose.y + ahead * sin_t + lateral * cos_t;
                    if track.distance_to(wx, wy) <= half_line {
                        frame.fill(row, col, col);
                    }
                }
            }
        }
    }
}

/// A track segment `ab`, with its length and unit axis worked out once
/// per capture rather than once per scan line.
struct Capsule {
    a: (f64, f64),
    b: (f64, f64),
    /// Unit vector from `a` to `b` and the segment length; `None` for a
    /// degenerate (zero-length) segment, which is just a disc.
    axis: Option<((f64, f64), f64)>,
}

impl Capsule {
    fn new(a: (f64, f64), b: (f64, f64)) -> Self {
        let abx = b.0 - a.0;
        let aby = b.1 - a.1;
        let len = (abx * abx + aby * aby).sqrt();
        let axis = (len > 0.0).then(|| ((abx / len, aby / len), len));
        Self { a, b, axis }
    }

    /// Intersects the scan line `base + s·dir` (`dir` unit-length) with
    /// the segment dilated by radius `r`, returning the `s`-span of the
    /// intersection (a single interval — capsules are convex) or `None`
    /// when the line misses it entirely. Used only to *classify pixels*
    /// in [`CameraModel::capture_into`], whose 1e-7 m radius margins make
    /// any rounding here inconsequential for the rendered bits.
    fn span(&self, base: (f64, f64), dir: (f64, f64), r: f64) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        // End discs: |base + s·dir − p|² ≤ r², i.e. s² + 2·bq·s + c ≤ 0.
        for p in [self.a, self.b] {
            let ex = base.0 - p.0;
            let ey = base.1 - p.1;
            let bq = ex * dir.0 + ey * dir.1;
            let c = ex * ex + ey * ey - r * r;
            let disc = bq * bq - c;
            if disc >= 0.0 {
                let sq = disc.sqrt();
                lo = lo.min(-bq - sq);
                hi = hi.max(-bq + sq);
            }
        }
        // Rectangle part: |perp offset| ≤ r within the segment's extent.
        if let Some(((ux, uy), len)) = self.axis {
            let px = base.0 - self.a.0;
            let py = base.1 - self.a.1;
            // Signed perp distance and along-segment coordinate, both
            // affine in s.
            let constraints = [
                (px * uy - py * ux, dir.0 * uy - dir.1 * ux, -r, r),
                (px * ux + py * uy, dir.0 * ux + dir.1 * uy, 0.0, len),
            ];
            let mut rlo = f64::NEG_INFINITY;
            let mut rhi = f64::INFINITY;
            let mut feasible = true;
            for (c0, dc, lim_lo, lim_hi) in constraints {
                if dc.abs() < 1e-12 {
                    // Scan line (anti)parallel to this constraint: it
                    // either holds for every s or for none.
                    if c0 < lim_lo || c0 > lim_hi {
                        feasible = false;
                        break;
                    }
                } else {
                    let s1 = (lim_lo - c0) / dc;
                    let s2 = (lim_hi - c0) / dc;
                    rlo = rlo.max(s1.min(s2));
                    rhi = rhi.min(s1.max(s2));
                }
            }
            if feasible && rlo <= rhi {
                lo = lo.min(rlo);
                hi = hi.max(rhi);
            }
        }
        (lo <= hi).then_some((lo, hi))
    }
}

/// Extracts edge pixels: positions where the binary intensity changes
/// horizontally (a cheap Canny stand-in on a binary frame).
pub fn detect_edges(frame: &Frame) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    detect_edges_into(frame, &mut edges);
    edges
}

/// [`detect_edges`] into a reusable buffer (cleared first). Compares
/// each pixel with its left neighbour a 64-bit word at a time: bit `j`
/// of `w ^ (w >> 1 | next << 63)` is set where columns `64k + j` and
/// `64k + j + 1` differ, and set bits are emitted in `trailing_zeros`
/// order, which is the order of a `(row, col)` scan.
pub fn detect_edges_into(frame: &Frame, edges: &mut Vec<(usize, usize)>) {
    edges.clear();
    if frame.width == 0 {
        return;
    }
    // Column pairs (c, c + 1) exist for c < width − 1; the last word of
    // a row starts at or before that bound and masks off what lies past.
    let pairs = frame.width - 1;
    for (row, words) in frame.bits.chunks_exact(frame.words_per_row()).enumerate() {
        for (k, &w) in words.iter().enumerate() {
            let next = words.get(k + 1).copied().unwrap_or(0);
            let mut diff = w ^ (w >> 1 | next << 63);
            let first = 64 * k;
            if first + 64 > pairs {
                diff &= (1u64 << (pairs - first)) - 1;
            }
            while diff != 0 {
                edges.push((row, first + diff.trailing_zeros() as usize + 1));
                diff &= diff - 1;
            }
        }
    }
}

/// A detected line in (ρ, θ) form with its vote count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoughLine {
    /// Distance of the line from the image origin, pixels.
    pub rho: f64,
    /// Normal angle of the line, radians `[0, π)`.
    pub theta: f64,
    /// Accumulator votes received.
    pub votes: u32,
}

impl HoughLine {
    /// Column at which this line crosses image row `row`, if it is not
    /// near-horizontal in (x=col, y=row) coordinates.
    pub fn col_at_row(&self, row: f64) -> Option<f64> {
        let cos = self.theta.cos();
        if cos.abs() < 1e-3 {
            return None;
        }
        Some((self.rho - row * self.theta.sin()) / cos)
    }
}

/// Probabilistic Hough transform: votes a random subset of edge points
/// into a quantised (ρ, θ) accumulator and returns lines above
/// `min_votes`, strongest first.
pub fn hough_lines(
    edges: &[(usize, usize)],
    frame_width: usize,
    frame_height: usize,
    min_votes: u32,
    rng: &mut SimRng,
) -> Vec<HoughLine> {
    let mut scratch = HoughScratch::new();
    let mut lines = Vec::new();
    hough_lines_into(
        edges,
        frame_width,
        frame_height,
        min_votes,
        rng,
        &mut scratch,
        &mut lines,
    );
    lines
}

const THETA_BINS: usize = 45; // 4° steps over [0, π)

/// Frames above this many pixels get no per-pixel vote table (at the cap
/// it would hold 2.8 MiB); their points all take the per-point path.
const VOTE_TABLE_MAX_PIXELS: usize = 1 << 15;

/// The (ρ, θ) quantisation of one frame geometry, with the accumulator
/// cells of every pixel in the frame worked out in advance.
///
/// A point's 45 cells depend only on the point and the geometry, so
/// they are computed once per process per `width × height` with
/// [`VoteTable::point_cells`] — the same `π·tb/bins` trig values and the
/// same `(ρ + diag).round()` bin expression the vote always used — and
/// stored as `u16` cell indices, `THETA_BINS` per pixel, row-major. A
/// sampled point then costs 45 table reads and integer adds, with no
/// trig and no `round`, and every cell is bitwise the one the direct
/// computation gives. Points outside the frame are voted through
/// `point_cells` itself, so [`hough_lines`] keeps its semantics for any
/// input.
struct VoteTable {
    width: usize,
    height: usize,
    diag: f64,
    rho_bins: usize,
    trig: [(f64, f64); THETA_BINS],
    /// `THETA_BINS` cell indices per pixel; empty when the geometry is
    /// too large to tabulate. An out-of-range ρ maps to the dump cell
    /// `THETA_BINS · rho_bins`, one past the accumulator proper.
    cells: Vec<u16>,
}

/// Every vote table built in this process, one per frame geometry.
/// Tables are immutable once built and never freed, so any thread can
/// hold one as `&'static`.
static VOTE_TABLES: Mutex<Vec<&'static VoteTable>> = Mutex::new(Vec::new());

impl VoteTable {
    /// The process-wide table for a `width × height` frame, built on
    /// first use.
    fn shared(width: usize, height: usize) -> &'static VoteTable {
        // The only update is a push of a finished table, so a panic
        // while the lock was held cannot have left the list invalid.
        let mut tables = VOTE_TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&table) = tables
            .iter()
            .find(|t| t.width == width && t.height == height)
        {
            return table;
        }
        let table: &'static VoteTable = Box::leak(Box::new(VoteTable::build(width, height)));
        tables.push(table);
        table
    }

    fn build(width: usize, height: usize) -> Self {
        let diag = ((width * width + height * height) as f64).sqrt();
        let rho_bins = (2.0 * diag).ceil() as usize + 1;
        let mut trig = [(0.0f64, 0.0f64); THETA_BINS];
        for (tb, t) in trig.iter_mut().enumerate() {
            let theta = std::f64::consts::PI * tb as f64 / THETA_BINS as f64;
            *t = (theta.cos(), theta.sin());
        }
        let mut table = Self {
            width,
            height,
            diag,
            rho_bins,
            trig,
            cells: Vec::new(),
        };
        let pixels = width.saturating_mul(height);
        if pixels <= VOTE_TABLE_MAX_PIXELS && table.dump_cell() <= usize::from(u16::MAX) {
            table.cells.reserve_exact(pixels * THETA_BINS);
            for row in 0..height {
                for col in 0..width {
                    let cells = table
                        .point_cells(row, col)
                        .map(|c| u16::try_from(c).expect("cell ≤ dump cell, checked to fit above"));
                    table.cells.extend_from_slice(&cells);
                }
            }
        }
        table
    }

    fn dump_cell(&self) -> usize {
        THETA_BINS * self.rho_bins
    }

    /// The cells point `(row, col)` votes for, one per θ bin.
    fn point_cells(&self, row: usize, col: usize) -> [usize; THETA_BINS] {
        std::array::from_fn(|tb| {
            let (cos_t, sin_t) = self.trig[tb];
            let rho = col as f64 * cos_t + row as f64 * sin_t;
            let rb = (rho + self.diag).round() as usize;
            if rb < self.rho_bins {
                tb * self.rho_bins + rb
            } else {
                self.dump_cell()
            }
        })
    }

    /// The tabulated cells of pixel `(row, col)`, or `None` when the
    /// point lies outside the table's frame.
    fn pixel_cells(&self, row: usize, col: usize) -> Option<&[u16; THETA_BINS]> {
        if row >= self.height || col >= self.width {
            return None;
        }
        let start = (row * self.width + col) * THETA_BINS;
        self.cells.get(start..start + THETA_BINS)?.try_into().ok()
    }
}

impl std::fmt::Debug for VoteTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VoteTable")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("rho_bins", &self.rho_bins)
            .field("cells", &self.cells.len())
            .finish()
    }
}

/// Reusable accumulator storage for [`hough_lines_into`].
#[derive(Debug, Clone, Default)]
pub struct HoughScratch {
    /// Votes per (θ, ρ) cell plus the dump cell. A cell takes at most
    /// one vote per sample (≤ 256) and the dump cell at most 45 per
    /// sample, so `u16` cannot overflow.
    acc: Vec<u16>,
    /// How many of this call's samples drew each edge point.
    draws: Vec<u16>,
    /// Cells at `min_votes` or more, keyed strongest first and then in
    /// cell order.
    keys: Vec<(Reverse<u16>, usize)>,
    /// The shared vote table of the last frame geometry seen.
    table: Option<&'static VoteTable>,
}

impl HoughScratch {
    /// Creates empty scratch storage (allocated on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`hough_lines`] with caller-provided scratch and output buffers.
///
/// Identical votes and lines to voting each sample in turn and stably
/// sorting every cell at `min_votes` by votes:
/// - the RNG draw sequence is unchanged (`min(n, 256)` draws of
///   `rng.below(n)`);
/// - a point drawn `k` times votes once with weight `k`, and integer
///   sums do not depend on their order;
/// - each point's cells come from its frame geometry's shared vote
///   table, bitwise the cells the direct `(ρ, θ)` quantisation gives
///   (see `VoteTable`);
/// - the 8 lines are the 8 smallest `(votes desc, cell asc)` keys, the
///   order a stable sort of the index-ordered cells by votes gives.
#[allow(clippy::too_many_arguments)] // mirrors `hough_lines` plus the two buffers
pub fn hough_lines_into(
    edges: &[(usize, usize)],
    frame_width: usize,
    frame_height: usize,
    min_votes: u32,
    rng: &mut SimRng,
    scratch: &mut HoughScratch,
    lines: &mut Vec<HoughLine>,
) {
    lines.clear();
    if edges.is_empty() {
        return;
    }
    let table = match scratch.table {
        Some(t) if t.width == frame_width && t.height == frame_height => t,
        _ => VoteTable::shared(frame_width, frame_height),
    };
    scratch.table = Some(table);
    let HoughScratch {
        acc, draws, keys, ..
    } = scratch;
    // Probabilistic subsampling: at most 256 draws, as in the
    // progressive probabilistic Hough transform's random selection stage.
    draws.clear();
    draws.resize(edges.len(), 0);
    for _ in 0..edges.len().min(256) {
        draws[rng.below(edges.len() as u64) as usize] += 1;
    }
    acc.clear();
    // Every (θ, ρ) cell plus the dump cell.
    acc.resize(table.dump_cell() + 1, 0);
    let acc = &mut acc[..=table.dump_cell()];
    for (&(row, col), &weight) in edges.iter().zip(draws.iter()) {
        if weight == 0 {
            continue;
        }
        match table.pixel_cells(row, col) {
            Some(cells) => {
                for &cell in cells {
                    acc[usize::from(cell)] += weight;
                }
            }
            None => {
                for cell in table.point_cells(row, col) {
                    acc[cell] += weight;
                }
            }
        }
    }
    // Runs of 16 cells with none at `min_votes` are skipped on one
    // vectorisable test, since most of the grid is empty: `v ≥ min_votes`
    // iff `v` stays nonzero after a saturating subtract of `min_votes − 1`.
    keys.clear();
    let below = u16::try_from(min_votes.saturating_sub(1)).unwrap_or(u16::MAX);
    for (run, votes) in acc[..table.dump_cell()].chunks(16).enumerate() {
        let empty = <&[u16; 16]>::try_from(votes)
            .is_ok_and(|run| run.iter().fold(0, |m, &v| m | v.saturating_sub(below)) == 0);
        if min_votes > 0 && empty {
            continue;
        }
        for (i, &v) in votes.iter().enumerate() {
            if u32::from(v) >= min_votes {
                keys.push((Reverse(v), run * 16 + i));
            }
        }
    }
    // Keys are distinct (one per cell), so the 8 smallest are well
    // defined and need only themselves sorted.
    if keys.len() > 8 {
        keys.select_nth_unstable(7);
        keys.truncate(8);
    }
    keys.sort_unstable();
    let (rho_bins, diag) = (table.rho_bins, table.diag);
    lines.extend(keys.iter().map(|&(Reverse(v), idx)| HoughLine {
        rho: (idx % rho_bins) as f64 - diag,
        theta: std::f64::consts::PI * (idx / rho_bins) as f64 / THETA_BINS as f64,
        votes: u32::from(v),
    }));
}

/// Recycled vision-pipeline buffers: frame bit rows, edge points, Hough
/// scratch (accumulator, draw counts, selection keys) and detected lines. A scenario run constructs one
/// [`LineFollower`]; without recycling, every run re-pays the
/// pipeline's first-frame buffer growth (~15 allocations). Each buffer
/// is cleared or fully overwritten before use, so recycling cannot
/// change any output bit — the pool is a free list, not a cache. (The
/// Hough scratch also keeps its vote-table reference; tables are
/// immutable and matched to the frame geometry on every call.)
#[derive(Debug, Default)]
struct VisionBuffers {
    bits: Vec<u64>,
    edges: Vec<(usize, usize)>,
    hough: HoughScratch,
    lines: Vec<HoughLine>,
}

/// Bounded so pathological churn (many live followers dropped at once)
/// cannot hoard memory; beyond the cap, buffers are simply freed.
const VISION_POOL_CAP: usize = 8;

thread_local! {
    /// Per-thread free list of [`VisionBuffers`]. Thread-local keeps the
    /// pool lock-free and keeps parallel campaign workers independent.
    static VISION_POOL: RefCell<Vec<VisionBuffers>> = const { RefCell::new(Vec::new()) };
}

/// The full line-following controller: camera + pipeline + PID steering.
///
/// # Example
///
/// ```
/// use vehicle::dynamics::BicycleState;
/// use vehicle::linefollow::{LineFollower, Track};
/// use sim_core::SimRng;
///
/// let track = Track::straight(20.0);
/// let mut follower = LineFollower::new();
/// let mut rng = SimRng::seed_from(5);
/// let pose = BicycleState { x: 1.0, y: 0.05, theta: 0.0 };
/// let steer = follower.steering(&pose, &track, 0.02, &mut rng);
/// assert!(steer.is_some(), "line in view");
/// ```
#[derive(Debug, Clone)]
pub struct LineFollower {
    camera: CameraModel,
    pid: Pid,
    /// Steering command applied when the line is lost (hold last).
    last_steer: f64,
    /// Consecutive frames without a detected line.
    lost_frames: u32,
    /// Reusable frame buffer (the pipeline runs every control tick;
    /// reuse avoids a frame + accumulator allocation per tick).
    frame: Frame,
    /// Reusable edge-point buffer.
    edges: Vec<(usize, usize)>,
    /// Reusable Hough accumulator.
    hough: HoughScratch,
    /// Reusable detected-line buffer.
    lines: Vec<HoughLine>,
}

impl Default for LineFollower {
    fn default() -> Self {
        Self::new()
    }
}

impl LineFollower {
    /// Creates a follower with the default camera and tuned PID gains.
    pub fn new() -> Self {
        Self::with_camera(CameraModel::default())
    }

    /// Creates a follower with a custom camera model.
    pub fn with_camera(camera: CameraModel) -> Self {
        let buffers = VISION_POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_default();
        Self {
            camera,
            pid: Pid::new(2.2, 0.05, 0.35)
                .with_output_limit(0.35)
                .with_integral_limit(0.2),
            last_steer: 0.0,
            lost_frames: 0,
            frame: Frame::empty(buffers.bits),
            edges: buffers.edges,
            hough: buffers.hough,
            lines: buffers.lines,
        }
    }

    /// Consecutive frames without a line detection.
    pub fn lost_frames(&self) -> u32 {
        self.lost_frames
    }

    /// Runs the full pipeline for one control period of `dt` seconds.
    ///
    /// Returns the steering angle in radians, or `None` when no line was
    /// detected this frame (the caller typically holds the last command).
    pub fn steering(
        &mut self,
        pose: &BicycleState,
        track: &Track,
        dt: f64,
        rng: &mut SimRng,
    ) -> Option<f64> {
        self.camera.capture_into(pose, track, &mut self.frame);
        detect_edges_into(&self.frame, &mut self.edges);
        hough_lines_into(
            &self.edges,
            self.frame.width(),
            self.frame.height(),
            8,
            rng,
            &mut self.hough,
            &mut self.lines,
        );
        let best = self.lines.first()?;
        // Lateral error at a mid-frame lookahead row.
        let look_row = self.frame.height() as f64 * 0.5;
        let col = best.col_at_row(look_row)?;
        let centre = self.frame.width() as f64 / 2.0;
        let error_m = (col - centre) * self.camera.meters_per_col();
        // Positive error (line to the right in image = left in vehicle
        // frame, because columns grow rightward while lateral grows
        // leftward is handled by the projection) steers toward the line.
        let steer = self.pid.update(error_m, dt);
        self.last_steer = steer;
        self.lost_frames = 0;
        Some(steer)
    }

    /// The last steering command issued.
    pub fn hold_last(&mut self) -> f64 {
        self.lost_frames += 1;
        self.last_steer
    }
}

impl Drop for LineFollower {
    fn drop(&mut self) {
        let buffers = VisionBuffers {
            bits: std::mem::take(&mut self.frame.bits),
            edges: std::mem::take(&mut self.edges),
            hough: std::mem::take(&mut self.hough),
            lines: std::mem::take(&mut self.lines),
        };
        VISION_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < VISION_POOL_CAP {
                pool.push(buffers);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{LongitudinalModel, VehicleParams};
    use proptest::prelude::*;

    #[test]
    fn track_distance_and_nearest() {
        let track = Track::straight(10.0);
        assert_eq!(track.distance_to(5.0, 0.0), 0.0);
        assert!((track.distance_to(5.0, 0.3) - 0.3).abs() < 1e-12);
        assert_eq!(track.nearest_point(5.0, 1.0), (5.0, 0.0));
        // Beyond the end, the endpoint is nearest.
        assert!((track.distance_to(11.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lateral_offset_signs() {
        let track = Track::straight(10.0);
        // Car left of the line (y > 0), line is to its right → negative.
        let left = BicycleState {
            x: 2.0,
            y: 0.2,
            theta: 0.0,
        };
        assert!(track.lateral_offset(&left) < 0.0);
        let right = BicycleState {
            x: 2.0,
            y: -0.2,
            theta: 0.0,
        };
        assert!(track.lateral_offset(&right) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn track_needs_two_points() {
        let _ = Track::new(vec![(0.0, 0.0)]);
    }

    #[test]
    fn camera_sees_line_when_on_track() {
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let frame = cam.capture(
            &BicycleState {
                x: 1.0,
                y: 0.0,
                theta: 0.0,
            },
            &track,
        );
        assert!(frame.fill_ratio() > 0.01, "line visible");
        // A central column near the bottom row should be lit.
        let mid = frame.width() / 2;
        let lit_mid: usize = (0..frame.height())
            .filter(|&r| frame.get(r, mid) || frame.get(r, mid - 1))
            .count();
        assert!(lit_mid > frame.height() / 2, "line runs up the centre");
    }

    #[test]
    fn camera_blind_when_far_from_track() {
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let frame = cam.capture(
            &BicycleState {
                x: 1.0,
                y: 5.0,
                theta: 0.0,
            },
            &track,
        );
        assert_eq!(frame.fill_ratio(), 0.0);
    }

    #[test]
    fn edges_flank_the_line() {
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let frame = cam.capture(
            &BicycleState {
                x: 1.0,
                y: 0.0,
                theta: 0.0,
            },
            &track,
        );
        let edges = detect_edges(&frame);
        assert!(!edges.is_empty());
        // Every edge is adjacent to exactly one lit pixel horizontally.
        for &(r, c) in &edges {
            assert!(frame.get(r, c) != frame.get(r, c - 1));
        }
    }

    #[test]
    fn hough_finds_vertical_centre_line() {
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let frame = cam.capture(
            &BicycleState {
                x: 1.0,
                y: 0.0,
                theta: 0.0,
            },
            &track,
        );
        let edges = detect_edges(&frame);
        let mut rng = SimRng::seed_from(1);
        let lines = hough_lines(&edges, frame.width(), frame.height(), 8, &mut rng);
        assert!(!lines.is_empty());
        let best = lines[0];
        let col = best.col_at_row(frame.height() as f64 / 2.0).unwrap();
        let centre = frame.width() as f64 / 2.0;
        assert!((col - centre).abs() < 4.0, "line near centre, col={col}");
    }

    #[test]
    fn hough_empty_edges_yields_no_lines() {
        let mut rng = SimRng::seed_from(1);
        assert!(hough_lines(&[], 64, 32, 5, &mut rng).is_empty());
    }

    #[test]
    fn follower_steers_toward_line() {
        let track = Track::straight(20.0);
        let mut follower = LineFollower::new();
        let mut rng = SimRng::seed_from(2);
        // Car displaced to the left of the line (y > 0): the line appears
        // right of image centre, so steering should be negative (right).
        let pose = BicycleState {
            x: 1.0,
            y: 0.15,
            theta: 0.0,
        };
        let steer = follower.steering(&pose, &track, 0.02, &mut rng).unwrap();
        assert!(steer < 0.0, "steer {steer}");
        // Displaced right steers left.
        let mut follower2 = LineFollower::new();
        let pose2 = BicycleState {
            x: 1.0,
            y: -0.15,
            theta: 0.0,
        };
        let steer2 = follower2.steering(&pose2, &track, 0.02, &mut rng).unwrap();
        assert!(steer2 > 0.0, "steer {steer2}");
    }

    #[test]
    fn follower_reports_loss_off_track() {
        let track = Track::straight(20.0);
        let mut follower = LineFollower::new();
        let mut rng = SimRng::seed_from(3);
        let pose = BicycleState {
            x: 1.0,
            y: 5.0,
            theta: 0.0,
        };
        assert!(follower.steering(&pose, &track, 0.02, &mut rng).is_none());
        let held = follower.hold_last();
        assert_eq!(held, 0.0);
        assert_eq!(follower.lost_frames(), 1);
    }

    #[test]
    fn closed_loop_line_following_converges() {
        // Full pipeline in the loop: camera → edges → Hough → PID →
        // bicycle model, 50 Hz control, car starting 10 cm off the line.
        let track = Track::straight(40.0);
        let params = VehicleParams::default();
        let mut pose = BicycleState {
            x: 0.5,
            y: 0.10,
            theta: 0.0,
        };
        let mut car = LongitudinalModel::new(params);
        car.set_speed(1.5);
        let mut follower = LineFollower::new();
        let mut rng = SimRng::seed_from(4);
        let dt = 0.02;
        let mut offsets = Vec::new();
        for step in 0..800 {
            // 16 s
            let steer = follower
                .steering(&pose, &track, dt, &mut rng)
                .unwrap_or_else(|| follower.hold_last());
            let ds = car.step(dt, 0.25);
            pose.advance(ds, steer, params.wheelbase_m);
            if step >= 600 {
                offsets.push(track.lateral_offset(&pose).abs());
            }
        }
        // Mean |offset| over the final 4 s: the 64-px Hough grid bounds
        // accuracy to a few centimetres, so we test the average, not the
        // instantaneous value.
        let mean = offsets.iter().sum::<f64>() / offsets.len() as f64;
        assert!(mean < 0.09, "converged to {mean} m mean offset");
        assert!(pose.x > 5.0, "car made forward progress: x={}", pose.x);
    }

    #[test]
    fn closed_loop_follows_the_corner() {
        // The L-corner track at a cautious speed: the follower must stay
        // on the line through the 1.5 m-radius turn.
        let track = Track::l_corner(3.0);
        let params = VehicleParams::default();
        let mut pose = BicycleState {
            x: 0.2,
            y: 0.0,
            theta: 0.0,
        };
        let mut car = LongitudinalModel::new(params);
        car.set_speed(0.8);
        let mut follower = LineFollower::new();
        let mut rng = SimRng::seed_from(9);
        let dt = 0.02;
        let mut max_offset: f64 = 0.0;
        // Throttle that holds ~0.8 m/s: rr 2.51 N + tiny aero over 12 N.
        // Stop before the line itself ends at y = 4.5 (with no line in
        // view the follower rightly has nothing to follow).
        for _ in 0..700 {
            if pose.y > 3.5 {
                break;
            }
            let steer = follower
                .steering(&pose, &track, dt, &mut rng)
                .unwrap_or_else(|| follower.hold_last());
            let ds = car.step(dt, 0.21);
            pose.advance(ds, steer, params.wheelbase_m);
            max_offset = max_offset.max(track.lateral_offset(&pose).abs());
        }
        assert!(
            max_offset < 0.30,
            "stayed within 30 cm of the line through the corner: {max_offset}"
        );
        // The car actually turned the corner: it is now on the +y leg.
        assert!(pose.y > 0.8, "made it around: y = {}", pose.y);
        assert!(
            pose.theta > std::f64::consts::FRAC_PI_4,
            "heading rotated toward +y: {}",
            pose.theta
        );
    }

    /// The pre-optimization vote loop: θ, cos θ, sin θ and the ρ bin
    /// evaluated inline for every sampled point. The production path
    /// reads each point's cells from the shared per-pixel vote table;
    /// this reference pins that the table is bitwise-neutral.
    fn hough_reference(
        edges: &[(usize, usize)],
        frame_width: usize,
        frame_height: usize,
        min_votes: u32,
        rng: &mut SimRng,
    ) -> Vec<HoughLine> {
        if edges.is_empty() {
            return Vec::new();
        }
        let diag = ((frame_width * frame_width + frame_height * frame_height) as f64).sqrt();
        let rho_bins = (2.0 * diag).ceil() as usize + 1;
        let mut acc = vec![0u32; THETA_BINS * rho_bins];
        let samples = edges.len().min(256);
        for _ in 0..samples {
            let &(row, col) = &edges[rng.below(edges.len() as u64) as usize];
            for tb in 0..THETA_BINS {
                let theta = std::f64::consts::PI * tb as f64 / THETA_BINS as f64;
                let rho = col as f64 * theta.cos() + row as f64 * theta.sin();
                let rb = (rho + diag).round() as usize;
                if rb < rho_bins {
                    acc[tb * rho_bins + rb] += 1;
                }
            }
        }
        let mut lines: Vec<HoughLine> = acc
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v >= min_votes)
            .map(|(idx, &v)| {
                let tb = idx / rho_bins;
                let rb = idx % rho_bins;
                HoughLine {
                    rho: rb as f64 - diag,
                    theta: std::f64::consts::PI * tb as f64 / THETA_BINS as f64,
                    votes: v,
                }
            })
            .collect();
        lines.sort_by_key(|l| std::cmp::Reverse(l.votes));
        lines.truncate(8);
        lines
    }

    #[test]
    fn hoisted_trig_matches_inline_reference_bitwise() {
        let cam = CameraModel::default();
        let track = Track::l_corner(3.0);
        let mut rng_a = SimRng::seed_from(77);
        let mut rng_b = SimRng::seed_from(77);
        for i in 0..12 {
            let pose = BicycleState {
                x: 0.3 * f64::from(i),
                y: 0.02 * f64::from(i),
                theta: 0.03 * f64::from(i),
            };
            let frame = cam.capture(&pose, &track);
            let edges = detect_edges(&frame);
            let expect = hough_reference(&edges, frame.width(), frame.height(), 8, &mut rng_a);
            let got = hough_lines(&edges, frame.width(), frame.height(), 8, &mut rng_b);
            assert_eq!(expect.len(), got.len());
            for (e, g) in expect.iter().zip(&got) {
                assert_eq!(e.rho.to_bits(), g.rho.to_bits());
                assert_eq!(e.theta.to_bits(), g.theta.to_bits());
                assert_eq!(e.votes, g.votes);
            }
        }
        // Same number of RNG draws on both paths.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    /// Lines of the table path and of the reference must agree in every
    /// bit, and both must leave the RNG at the same draw.
    fn assert_matches_reference(
        edges: &[(usize, usize)],
        width: usize,
        height: usize,
        min_votes: u32,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng_a = SimRng::seed_from(seed);
        let mut rng_b = SimRng::seed_from(seed);
        let expect = hough_reference(edges, width, height, min_votes, &mut rng_a);
        let got = hough_lines(edges, width, height, min_votes, &mut rng_b);
        prop_assert_eq!(expect.len(), got.len());
        for (e, g) in expect.iter().zip(&got) {
            prop_assert_eq!(e.rho.to_bits(), g.rho.to_bits());
            prop_assert_eq!(e.theta.to_bits(), g.theta.to_bits());
            prop_assert_eq!(e.votes, g.votes);
        }
        prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        Ok(())
    }

    #[test]
    fn vote_cells_match_direct_quantisation() {
        // Every cell a point votes for, in the frame (from the table) and
        // out to three frames away (per point), against the reference's
        // inline quantisation: out-of-range ρ bins get no vote.
        for (width, height) in [(64, 32), (96, 48)] {
            let table = VoteTable::shared(width, height);
            assert_eq!(table.cells.len(), width * height * THETA_BINS);
            let diag = ((width * width + height * height) as f64).sqrt();
            for row in 0..3 * height {
                for col in 0..3 * width {
                    let cells: Vec<usize> = match table.pixel_cells(row, col) {
                        Some(cells) => cells.iter().map(|&c| usize::from(c)).collect(),
                        None => table.point_cells(row, col).to_vec(),
                    };
                    assert_eq!(cells.len(), THETA_BINS);
                    for (tb, &cell) in cells.iter().enumerate() {
                        let theta = std::f64::consts::PI * tb as f64 / THETA_BINS as f64;
                        let rho = col as f64 * theta.cos() + row as f64 * theta.sin();
                        let rb = (rho + diag).round() as usize;
                        if rb < table.rho_bins {
                            assert_eq!(cell, tb * table.rho_bins + rb, "({row}, {col}) θ bin {tb}");
                        } else {
                            assert_eq!(cell, table.dump_cell(), "({row}, {col}) θ bin {tb}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_frames_vote_without_a_table() {
        // 256 × 256 exceeds the tabulated size: every point takes the
        // per-point path, with the same lines as the reference.
        let table = VoteTable::shared(256, 256);
        assert!(table.cells.is_empty());
        let edges: Vec<(usize, usize)> = (0..300).map(|i| (i % 256, (i * 7) % 256)).collect();
        assert_matches_reference(&edges, 256, 256, 2, 11).unwrap();
    }

    #[test]
    fn min_votes_zero_ranks_unvoted_cells_too() {
        // A point 5000 rows below the frame has ρ in range only at θ = 0
        // (every other θ bin votes the dump cell), so with every cell
        // eligible seven of the 8 lines have no votes.
        let edges = [(5000, 0)];
        assert_matches_reference(&edges, 64, 32, 0, 5).unwrap();
        let lines = hough_lines(&edges, 64, 32, 0, &mut SimRng::seed_from(5));
        assert_eq!(lines.len(), 8);
        assert_eq!(lines.iter().filter(|l| l.votes == 0).count(), 7);
    }

    #[test]
    fn large_accumulators_keep_full_cell_indices() {
        // 1100 × 1100 has 45 × 3113 cells. Points on the line at θ bin 30
        // (120°), ρ = 600 make the strongest cells ones past index 65 535.
        let (cos_t, sin_t) = (-0.5f64, 3f64.sqrt() / 2.0);
        let edges: Vec<(usize, usize)> = (0..200)
            .map(|i| {
                let col = 2.0 * f64::from(i);
                (
                    ((600.0 - col * cos_t) / sin_t).round() as usize,
                    col as usize,
                )
            })
            .collect();
        assert_matches_reference(&edges, 1100, 1100, 5, 23).unwrap();
        let lines = hough_lines(&edges, 1100, 1100, 5, &mut SimRng::seed_from(23));
        let table = VoteTable::shared(1100, 1100);
        let tb = (lines[0].theta * THETA_BINS as f64 / std::f64::consts::PI).round() as usize;
        let cell = tb * table.rho_bins + (lines[0].rho + table.diag).round() as usize;
        assert!(cell > usize::from(u16::MAX), "strongest cell {cell}");
    }

    #[test]
    fn vote_table_is_built_once_and_shared_across_threads() {
        let table_on_new_thread = || {
            std::thread::spawn(|| {
                let mut follower = LineFollower::new();
                let mut rng = SimRng::seed_from(5);
                let pose = BicycleState {
                    x: 1.0,
                    y: 0.05,
                    theta: 0.0,
                };
                assert!(follower
                    .steering(&pose, &Track::straight(20.0), 0.02, &mut rng)
                    .is_some());
                follower
                    .hough
                    .table
                    .expect("table fetched by the first frame")
            })
            .join()
            .unwrap()
        };
        let (a, b) = (table_on_new_thread(), table_on_new_thread());
        assert!(std::ptr::eq(a, b), "one table instance for both threads");
        let cam = CameraModel::default();
        let built = VOTE_TABLES
            .lock()
            .unwrap()
            .iter()
            .filter(|t| t.width == cam.width && t.height == cam.height)
            .count();
        assert_eq!(built, 1, "the default geometry's table is built once");
    }

    #[test]
    fn reused_scratch_matches_fresh_buffers_bitwise() {
        let cam = CameraModel::default();
        let track = Track::l_corner(3.0);
        let mut frame = Frame::empty(Vec::new());
        let mut edges = Vec::new();
        let mut scratch = HoughScratch::new();
        let mut lines = Vec::new();
        let mut rng_a = SimRng::seed_from(42);
        let mut rng_b = SimRng::seed_from(42);
        for i in 0..10 {
            let pose = BicycleState {
                x: 0.25 * f64::from(i),
                y: 0.03 * f64::from(i) - 0.1,
                theta: 0.02 * f64::from(i),
            };
            let fresh = cam.capture(&pose, &track);
            cam.capture_into(&pose, &track, &mut frame);
            assert_eq!(fresh, frame, "frame {i}");
            let fresh_edges = detect_edges(&fresh);
            detect_edges_into(&frame, &mut edges);
            assert_eq!(fresh_edges, edges, "edges {i}");
            let fresh_lines =
                hough_lines(&fresh_edges, fresh.width(), fresh.height(), 8, &mut rng_a);
            hough_lines_into(
                &edges,
                frame.width(),
                frame.height(),
                8,
                &mut rng_b,
                &mut scratch,
                &mut lines,
            );
            assert_eq!(fresh_lines, lines, "lines {i}");
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    /// The pre-optimization renderer: every pixel gets the exact
    /// `distance_to` test. The production `capture_into` settles most
    /// pixels from two capsule spans and runs that test only between
    /// them; this reference pins that the spans never change a pixel.
    fn capture_reference(cam: &CameraModel, pose: &BicycleState, track: &Track) -> Frame {
        let mut pixels = vec![false; cam.width * cam.height];
        let cos_t = pose.theta.cos();
        let sin_t = pose.theta.sin();
        let mpc = cam.meters_per_col();
        let half_line = cam.line_width_m / 2.0;
        for row in 0..cam.height {
            let ahead =
                cam.far_m - (cam.far_m - cam.near_m) * (row as f64 + 0.5) / cam.height as f64;
            for col in 0..cam.width {
                let lateral = -cam.half_width_m + (col as f64 + 0.5) * mpc;
                let wx = pose.x + ahead * cos_t - lateral * sin_t;
                let wy = pose.y + ahead * sin_t + lateral * cos_t;
                if track.distance_to(wx, wy) <= half_line {
                    pixels[row * cam.width + col] = true;
                }
            }
        }
        frame_from_pixels(cam.width, cam.height, &pixels)
    }

    /// A frame holding a row-major `Vec<bool>` image, bit by bit.
    fn frame_from_pixels(width: usize, height: usize, pixels: &[bool]) -> Frame {
        assert_eq!(pixels.len(), width * height);
        let words_per_row = width.div_ceil(64);
        let mut bits = vec![0u64; words_per_row * height];
        for (i, _) in pixels.iter().enumerate().filter(|(_, &lit)| lit) {
            let (row, col) = (i / width, i % width);
            bits[row * words_per_row + col / 64] |= 1 << (col % 64);
        }
        Frame {
            width,
            height,
            bits,
        }
    }

    /// The pre-optimization edge walk: each pixel of a `Vec<bool>` image
    /// against its left neighbour, one row slice at a time.
    fn detect_edges_reference(pixels: &[bool], width: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        if width == 0 {
            return edges;
        }
        for (row, pixels) in pixels.chunks_exact(width).enumerate() {
            for (col, pair) in pixels.windows(2).enumerate() {
                if pair[1] != pair[0] {
                    edges.push((row, col + 1));
                }
            }
        }
        edges
    }

    /// The default camera, a two-word-per-row camera, and lines narrower
    /// than one column (core span holding at most one column centre) and
    /// than the 2e-7 m capsule margin (no core capsule at all).
    fn raster_cameras() -> [CameraModel; 4] {
        let cam = CameraModel::default();
        [
            cam,
            CameraModel {
                width: 130,
                height: 40,
                ..cam
            },
            CameraModel {
                line_width_m: 0.01,
                ..cam
            },
            CameraModel {
                line_width_m: 1.5e-7,
                ..cam
            },
        ]
    }

    #[test]
    #[should_panic(expected = "outside a 64×32 frame")]
    fn get_panics_past_the_last_column() {
        let frame = CameraModel::default().capture(
            &BicycleState {
                x: 1.0,
                y: 0.0,
                theta: 0.0,
            },
            &Track::straight(10.0),
        );
        // Pixel (1, 0) in a flat row-major layout; outside the frame.
        frame.get(0, frame.width());
    }

    #[test]
    fn capture_matches_reference_bitwise() {
        for cam in raster_cameras() {
            for track in [Track::straight(10.0), Track::l_corner(3.0)] {
                for i in 0..40 {
                    // Poses sweeping across the track, rotating through a
                    // full turn, including ones straddling the line edge.
                    let pose = BicycleState {
                        x: 0.25 * f64::from(i) - 1.0,
                        y: 0.055 * f64::from(i) - 1.0,
                        theta: 0.17 * f64::from(i),
                    };
                    let expect = capture_reference(&cam, &pose, &track);
                    let got = cam.capture(&pose, &track);
                    assert_eq!(expect, got, "{cam:?} track/pose {i}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn capture_candidate_filter_is_bitwise_neutral(
            x in -2.0f64..6.0,
            y in -2.0f64..4.0,
            theta in -7.0f64..7.0,
            paper_track in any::<bool>(),
            cam in 0usize..4,
        ) {
            // The L corner, or the paper scenario's straight track (start
            // 4 m + 2 m, driven toward -x) seen from poses near it.
            let cam = raster_cameras()[cam];
            let (track, pose) = if paper_track {
                (Track::straight(6.0), BicycleState { x, y: y / 4.0 - 0.25, theta })
            } else {
                (Track::l_corner(3.0), BicycleState { x, y, theta })
            };
            let expect = capture_reference(&cam, &pose, &track);
            let got = cam.capture(&pose, &track);
            prop_assert_eq!(expect, got);
        }

        #[test]
        fn bit_rows_match_a_bool_model(
            words in proptest::collection::vec(any::<u64>(), 9),
            mask in proptest::collection::vec(any::<u64>(), 9),
            sparse in any::<bool>(),
            height in 0usize..5,
        ) {
            // Widths around the word size: carries across words and the
            // mask on the padding bits of a row's last word. Pixels are
            // random bits, a quarter of them lit when `sparse`.
            for width in [1, 2, 63, 64, 65, 96, 130] {
                let pixels: Vec<bool> = (0..width * height)
                    .map(|i| {
                        let bit = |w: &[u64]| w[i / 64] >> (i % 64) & 1 == 1;
                        bit(&words) && (!sparse || bit(&mask))
                    })
                    .collect();
                let frame = frame_from_pixels(width, height, &pixels);
                prop_assert_eq!(detect_edges(&frame), detect_edges_reference(&pixels, width));
                for (i, &lit) in pixels.iter().enumerate() {
                    prop_assert_eq!(frame.get(i / width, i % width), lit);
                }
                let lit = pixels.iter().filter(|&&p| p).count();
                let ratio = lit as f64 / pixels.len() as f64;
                prop_assert_eq!(frame.fill_ratio().to_bits(), ratio.to_bits());
            }
        }

        #[test]
        fn hough_table_matches_reference_bitwise(
            in_frame in proptest::collection::vec((0usize..56, 0usize..112), 0..400),
            far in proptest::collection::vec((0usize..5000, 0usize..5000), 0..4),
            repeats in proptest::collection::vec(any::<usize>(), 0..100),
            wide in any::<bool>(),
            min_votes in 0u32..12,
            seed in any::<u64>(),
        ) {
            // Up to 500 points (so the 256-draw cap is exercised), part of
            // them past the frame's right or bottom edge, a few far
            // outside it and some listed more than once, on the default
            // camera and one larger geometry.
            let (width, height) = if wide { (96, 48) } else { (64, 32) };
            let mut edges = in_frame;
            edges.extend(far);
            if !edges.is_empty() {
                for r in repeats {
                    edges.push(edges[r % edges.len()]);
                }
            }
            assert_matches_reference(&edges, width, height, min_votes, seed)?;
        }

        #[test]
        fn track_distance_non_negative(x in -20.0f64..20.0, y in -20.0f64..20.0) {
            let track = Track::l_corner(5.0);
            prop_assert!(track.distance_to(x, y) >= 0.0);
        }

        #[test]
        fn nearest_point_is_on_polyline_bound(x in -20.0f64..20.0, y in -20.0f64..20.0) {
            let track = Track::straight(10.0);
            let (nx, ny) = track.nearest_point(x, y);
            prop_assert!((0.0..=10.0).contains(&nx));
            prop_assert_eq!(ny, 0.0);
        }
    }
}
