//! The probe of `city_n2000` (unlisted, see `spec::UNLISTED`): one
//! city-scale run of 2000 stations over 10 s simulated for the counts,
//! and the spatial grid timed on the city's own layout.

use its_testbed::city::{run_city, urban_channel_config, CityConfig};
use phy80211p::{Channel, Position2D};
use sim_core::SimRng;

use crate::harness::Report;
use crate::layers;
use crate::trace::ROOT;

const STATIONS: usize = 2000;

/// Stations laid out on the city's Manhattan grid: the same area,
/// density and street spacing as the run, with positions drawn from
/// the run's seed.
fn layout(config: &CityConfig) -> Vec<Position2D> {
    let side_m = (config.n_stations as f64 / config.density_per_km2).sqrt() * 1000.0;
    let streets = (side_m / config.street_spacing_m).floor().max(1.0) as u64;
    let mut rng = SimRng::seed_from(config.seed).fork("perfbench/layout");
    (0..config.n_stations)
        .map(|_| {
            let street = rng.below(streets) as f64 * config.street_spacing_m;
            let along = rng.uniform(0.0, side_m);
            if rng.bernoulli(0.5) {
                Position2D::new(along, street)
            } else {
                Position2D::new(street, along)
            }
        })
        .collect()
}

/// Sets `phy80211p.candidates_ns` (spatial-grid queries at the city's
/// culling radius) and `phy80211p.evals_per_frame` (channel
/// evaluations per transmitted frame in one city run of `seed`). The
/// run must repeat exactly.
pub fn probe(report: &mut Report, seed: u64) {
    let config = CityConfig {
        seed,
        n_stations: STATIONS,
        ..CityConfig::default()
    };
    let record = run_city(&config);
    report.check(run_city(&config) == record, || {
        "a repeated city run differs".into()
    });
    let root = report.spans.open("city_probe", ROOT);
    let channel = Channel::new(urban_channel_config());
    let cutoff = channel
        .cutoff_radius_m(config.cam_len_bytes, config.data_rate)
        .max(channel.cutoff_radius_m(config.denm_len_bytes, config.data_rate));
    let mut sink = layers::Sink {
        out: &mut report.layers,
        spans: &mut report.spans,
        parent: root,
    };
    layers::candidates(&mut sink, &layout(&config), cutoff);
    report.spans.close(root);

    let frames = record.cams_transmitted as f64
        + config.duration.as_secs_f64() / config.denm_period.as_secs_f64();
    let evals = record.events as f64;
    report
        .layers
        .set("phy80211p.evals_per_frame", evals / frames.max(1.0));
    report.notes.push(format!(
        "city probe: {frames:.0} frames and {evals:.0} channel evaluations per run; cutoff {cutoff:.1} m"
    ));
}
