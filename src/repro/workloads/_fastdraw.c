/* Batched per-VM draw kernel for the array generation engine.
 *
 * Compiled on demand by fastdraw.py against numpy's own static
 * distribution library (libnpyrandom.a) and its published
 * numpy/random/distributions.h API.  Every draw below calls the exact
 * C function that numpy's Generator dispatches to, against the same
 * PCG64 state struct, so the stream of variates is bit-identical to
 * the per-VM Generator calls in the reference path — the only thing
 * removed is the python call overhead between draws.
 *
 * Contract notes (mirrors generator._draw_block / the scalar pipeline):
 *   - Per VM, the caller-provided 128-bit (state, inc) pair is written
 *     straight into the bit generator and the uint32 buffer flags are
 *     cleared, exactly like FastSeeder.install.
 *   - The conditional draw order is the scalar pipeline's contract:
 *     spread, flash-event participation, peak hour, lognormal texture,
 *     AR(1) gaussians, scheduled-job draws, spike draws, memory noise.
 *   - Generator.uniform(low, high) is low + (high - low) * u with the
 *     span computed once in double precision; the caller passes that
 *     span so the arithmetic matches to the last bit.
 *   - Bounded integers use use_masked=false (Lemire rejection), which
 *     is Generator.integers' path; RandomState's masked path would
 *     consume a different stream.
 *
 * Keep this file free of floating-point re-association: it must be
 * compiled with -ffp-contract=off so no fused multiply-adds change
 * results versus numpy's own elementwise arithmetic.
 */

#include <stdbool.h>
#include <stddef.h>
#include <stdint.h>

#include <numpy/random/distributions.h>

/* Scalar draw parameters for one profile block.  Field order matters:
 * fastdraw.py mirrors this struct with ctypes. */
typedef struct {
  int64_t count;
  int64_t n_hours;
  double spread_mu;
  double spread_sigma;
  double peak_low;
  double peak_span;
  double ln_mu;
  double ln_sigma;
  int64_t draw_gauss;
  double mem_mu;
  double mem_sigma;
  int64_t has_sched;
  int64_t sched_period;
  int64_t sched_jitter;
  int64_t sched_max_occ;
  double sched_base_level;
  double level_low;
  double level_span;
  int64_t do_spikes;
  double spike_lam;
  double spike_alpha;
  int64_t n_events;
  double participation;
  double severity_low;
  double severity_span;
} repro_draw_params;

/* Input state vectors and output buffers for one block. */
typedef struct {
  const uint64_t *state_lo;
  const uint64_t *state_hi;
  const uint64_t *inc_lo;
  const uint64_t *inc_hi;
  const double *event_magnitudes;
  double *spreads;
  double *peaks;
  double *ln_rows;
  double *gauss;
  double *mem_rows;
  int64_t *sched_starts;
  double *sched_levels;
  int64_t *sched_jitters;
  int64_t *spike_counts;
  int64_t *spike_starts;
  double *spike_paretos;
  int64_t *spike_durs;
  int64_t spike_capacity;
  int32_t *hit_events;
  int32_t *hit_rows;
  double *hit_sevs;
} repro_draw_buffers;

static void install_state(uint64_t *words, uint32_t *flags, uint64_t s_lo,
                          uint64_t s_hi, uint64_t i_lo, uint64_t i_hi) {
  words[0] = s_lo;
  words[1] = s_hi;
  words[2] = i_lo;
  words[3] = i_hi;
  flags[0] = 0; /* has_uint32 */
  flags[1] = 0; /* uinteger */
}

/* Draw every per-VM variate for one block.  Returns 0 on success or 1
 * when the spike buffers overflowed — *spikes_needed then reports the
 * required capacity and the caller re-runs the block (re-installing
 * each VM's state makes the rerun deterministic). */
int64_t repro_draw_block(bitgen_t *bg, uint64_t *state_words, uint32_t *flags,
                         const repro_draw_params *p,
                         const repro_draw_buffers *b, int64_t *spikes_needed,
                         int64_t *hits_out) {
  const int64_t count = p->count;
  const int64_t n = p->n_hours;
  const int do_events = p->n_events > 0 && p->participation > 0.0;
  int64_t spike_cursor = 0;
  int64_t hits = 0;
  int64_t overflow = 0;

  for (int64_t k = 0; k < count; k++) {
    install_state(state_words, flags, b->state_lo[k], b->state_hi[k],
                  b->inc_lo[k], b->inc_hi[k]);
    b->spreads[k] = random_lognormal(bg, p->spread_mu, p->spread_sigma);
    if (do_events) {
      for (int64_t e = 0; e < p->n_events; e++) {
        double u = random_standard_uniform(bg);
        if (u < p->participation) {
          double severity_u = random_standard_uniform(bg);
          b->hit_events[hits] = (int32_t)e;
          b->hit_rows[hits] = (int32_t)k;
          b->hit_sevs[hits] =
              b->event_magnitudes[e] *
              (p->severity_low + p->severity_span * severity_u);
          hits++;
        }
      }
    }
    b->peaks[k] = p->peak_low + p->peak_span * random_standard_uniform(bg);
    if (p->ln_sigma > 0.0) {
      double *row = b->ln_rows + k * n;
      for (int64_t j = 0; j < n; j++) {
        row[j] = random_lognormal(bg, p->ln_mu, p->ln_sigma);
      }
    }
    if (p->draw_gauss) {
      random_standard_normal_fill(bg, (npy_intp)n, b->gauss + k * n);
    }
    if (p->has_sched) {
      uint64_t start;
      random_bounded_uint64_fill(bg, 0, (uint64_t)(p->sched_period - 1), 1,
                                 false, &start);
      b->sched_starts[k] = (int64_t)start;
      b->sched_levels[k] =
          p->sched_base_level *
          (p->level_low + p->level_span * random_standard_uniform(bg));
      if (p->sched_jitter > 0 && (int64_t)start < n) {
        int64_t occurrences = (n - 1 - (int64_t)start) / p->sched_period + 1;
        random_bounded_uint64_fill(
            bg, (uint64_t)(-p->sched_jitter), (uint64_t)(2 * p->sched_jitter),
            (npy_intp)occurrences, false,
            (uint64_t *)(b->sched_jitters + k * p->sched_max_occ));
      }
    }
    if (p->do_spikes) {
      int64_t n_spikes = (int64_t)random_poisson(bg, p->spike_lam);
      if (n_spikes > 0) {
        b->spike_counts[k] = n_spikes;
        if (!overflow && spike_cursor + n_spikes <= b->spike_capacity) {
          random_bounded_uint64_fill(
              bg, 0, (uint64_t)(n - 1), (npy_intp)n_spikes, false,
              (uint64_t *)(b->spike_starts + spike_cursor));
          for (int64_t i = 0; i < n_spikes; i++) {
            b->spike_paretos[spike_cursor + i] =
                random_pareto(bg, p->spike_alpha);
          }
          random_bounded_uint64_fill(
              bg, 1, 2, (npy_intp)n_spikes, false,
              (uint64_t *)(b->spike_durs + spike_cursor));
        } else {
          /* Undersized buffer: keep counting so the caller learns the
           * required capacity, but stop writing.  The partial draws are
           * discarded by the deterministic rerun. */
          overflow = 1;
        }
        spike_cursor += n_spikes;
      }
    }
    if (p->mem_sigma > 0.0) {
      double *row = b->mem_rows + k * n;
      for (int64_t j = 0; j < n; j++) {
        row[j] = random_lognormal(bg, p->mem_mu, p->mem_sigma);
      }
    }
  }
  *spikes_needed = spike_cursor;
  *hits_out = hits;
  return overflow;
}

/* Fixed draw choreography used by fastdraw.py to prove, at load time,
 * that this library's distribution calls are bit-identical to numpy's
 * Generator — including the Lemire bounded-integer path and the
 * buffered-uint32 handling that install_state must reset. */
void repro_draw_probe(bitgen_t *bg, double *out_f, int64_t *out_i) {
  uint64_t tmp;
  uint64_t pair[2];
  out_f[0] = random_lognormal(bg, 0.1, 0.9);
  random_standard_normal_fill(bg, 3, out_f + 1);
  out_f[4] = random_standard_uniform(bg);
  out_f[5] = random_pareto(bg, 2.5);
  random_bounded_uint64_fill(bg, 0, 23, 1, false, &tmp);
  out_i[0] = (int64_t)tmp;
  out_i[1] = (int64_t)random_poisson(bg, 5.04);
  random_bounded_uint64_fill(bg, (uint64_t)(int64_t)-3, 6, 1, false, &tmp);
  out_i[2] = (int64_t)tmp;
  random_bounded_uint64_fill(bg, 1, 2, 2, false, pair);
  out_i[3] = (int64_t)pair[0];
  out_i[4] = (int64_t)pair[1];
}

/* First-order AR(1) recurrence, matching models.ar1_filter_matrix:
 * out[0] = stationary_std * g[0]; out[t] = phi*out[t-1] + sigma*g[t].
 * The numpy recurrence steps one column at a time with the same two
 * products and one addition in the same order, so rows are
 * bit-identical (given -ffp-contract=off). */
void repro_ar1_filter(const double *gauss, double *out, int64_t count,
                      int64_t n, double phi, double sigma,
                      double stationary_std) {
  for (int64_t k = 0; k < count; k++) {
    const double *g = gauss + k * n;
    double *y = out + k * n;
    double previous = stationary_std * g[0];
    y[0] = previous;
    for (int64_t t = 1; t < n; t++) {
      previous = phi * previous + sigma * g[t];
      y[t] = previous;
    }
  }
}

/* The fused multiplicative-texture pass over a periodic base: one pass
 * gathers the base operand from a per-row pattern and writes
 *   util[k][t] = pattern[k][(start_hour + t) % period] * a * b * col
 * with any of a, b, col optionally absent.  Composing the elementwise
 * passes per element performs the identical sequence of IEEE
 * multiplies, so the result is bit-identical to expanding the pattern
 * (models._tile_periodic — a pure copy) and then running the separate
 * numpy multiply passes, without ever materializing the expanded
 * matrix. */
void repro_texture_fill(double *util, const double *pattern, int64_t period,
                        int64_t start_hour, const double *texture_a,
                        const double *texture_b, const double *column,
                        int64_t count, int64_t n) {
  for (int64_t k = 0; k < count; k++) {
    double *u = util + k * n;
    const double *p = pattern + k * period;
    const double *a = texture_a ? texture_a + k * n : NULL;
    const double *b = texture_b ? texture_b + k * n : NULL;
    int64_t index = start_hour % period;
    for (int64_t t = 0; t < n; t++) {
      double value = p[index];
      if (++index == period) {
        index = 0;
      }
      if (a) {
        value = value * a[t];
      }
      if (b) {
        value = value * b[t];
      }
      if (column) {
        value = value * column[t];
      }
      u[t] = value;
    }
  }
}

/* Fused per-row scaling: util = (util * numerator[k]) / denominator[k],
 * one matrix pass instead of a broadcast multiply plus a broadcast
 * divide (same two roundings per element). */
void repro_row_scale(double *util, const double *numerator,
                     const double *denominator, int64_t count, int64_t n) {
  for (int64_t k = 0; k < count; k++) {
    double *u = util + k * n;
    const double scale = numerator[k];
    const double divisor = denominator[k];
    for (int64_t t = 0; t < n; t++) {
      u[t] = (u[t] * scale) / divisor;
    }
  }
}

/* The fused CPU->memory boundary: per row
 *   util     = clip(util, clip_low, clip_high)        (written back)
 *   rpe2     = util * scale                           (when rpe2 != NULL)
 *   peak     = max(row max of clipped util, peak_floor)
 *   committed = util / peak
 * clip matches numpy's minimum(maximum(x, low), high) on finite data;
 * the row max is an exact, order-free reduction; the second sweep runs
 * while the row is still cache-hot.  Bit-identical to the four
 * separate numpy passes. */
void repro_clip_scale_div(double *util, double *rpe2, double *committed,
                          int64_t count, int64_t n, double clip_low,
                          double clip_high, double scale,
                          double peak_floor) {
  for (int64_t k = 0; k < count; k++) {
    double *u = util + k * n;
    double *r = rpe2 ? rpe2 + k * n : NULL;
    double *c = committed + k * n;
    double peak = clip_low;
    for (int64_t t = 0; t < n; t++) {
      double value = u[t];
      if (value < clip_low) {
        value = clip_low;
      }
      if (value > clip_high) {
        value = clip_high;
      }
      u[t] = value;
      if (r) {
        r[t] = value * scale;
      }
      if (value > peak) {
        peak = value;
      }
    }
    if (peak < peak_floor) {
      peak = peak_floor;
    }
    for (int64_t t = 0; t < n; t++) {
      c[t] = u[t] / peak;
    }
  }
}

/* The fused memory tail: starting from committed = normalized_load ^
 * exponent (computed by numpy, whose SIMD pow this must not replace),
 * apply per row, in the reference pass order,
 *   driver   = ewma(committed, alpha)           (recurrence)
 *   value    = driver * dynamic_frac + base_frac (two roundings)
 *   value   *= noise  (when present)
 *   value   *= configured_gb
 *   clip to [clip_low, clip_high]
 * writing the result back into `committed`.  Every step rounds exactly
 * like the corresponding numpy pass; clip matches numpy's
 * minimum(maximum(x, low), high) on the finite values generated here. */
void repro_mem_finish(double *committed, const double *noise, int64_t count,
                      int64_t n, double alpha, double one_minus,
                      double dynamic_frac, double base_frac,
                      double configured_gb, double clip_low,
                      double clip_high) {
  for (int64_t k = 0; k < count; k++) {
    double *v = committed + k * n;
    const double *noise_row = noise ? noise + k * n : NULL;
    double previous = v[0];
    for (int64_t t = 0; t < n; t++) {
      double driver;
      if (t == 0) {
        driver = previous;
      } else {
        previous = alpha * v[t] + one_minus * previous;
        driver = previous;
      }
      double value = driver * dynamic_frac;
      value = value + base_frac;
      if (noise_row) {
        value = value * noise_row[t];
      }
      value = value * configured_gb;
      if (value < clip_low) {
        value = clip_low;
      }
      if (value > clip_high) {
        value = clip_high;
      }
      v[t] = value;
    }
  }
}
