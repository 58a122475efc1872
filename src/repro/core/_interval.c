/* One interval of the dynamic planner.
 *
 * Compiled on first use by interval_kernel.py (through repro/native.py)
 * and called once per interval.  It makes, bit for bit, the decisions of
 * the Python loop in core/dynamic_vector.py (first_fit, then
 * _vacate_intervals_hosts / _try_vacate on IncrementalPlan):
 *
 *   - the FFD order is np.lexsort((id_rank, -score)) with score =
 *     np.maximum(cpu / ref cpu, mem / ref memory) against the warm-first
 *     scan's head host: decreasing score, NaN last, ties by id rank;
 *     with constraints, the constrained rows then move to the front,
 *     stably, as ffd_order does;
 *   - the saturation skip's suffix minima follow np.minimum.accumulate
 *     over that order;
 *   - every fit is `body + demand <= eps` (pending moves counted as
 *     `body + pending + demand <= eps`), bodies and pending loads are
 *     left folds in placement order, and a dead host is one where
 *     `min > cap - body + 1e-9` on CPU or memory;
 *   - sources sort by (row count, body cpu) once per sweep, candidates
 *     by residual min((cap - body) / cap) over CPU and memory with
 *     Python's min (the first argument on ties) after each commit, and
 *     a source's rows by CPU descending in append order for ties -- all
 *     with one stable merge sort, as Python's stable sorts;
 *   - the capacity rule's four sums fold from 0 in candidate order, the
 *     migration cost folds from 0 in move order, each term from the
 *     caller's callback (which rounds in Python), and a commit
 *     re-checks every move against the committed bodies.
 *
 * Deployment constraints stay in Python.  For a constrained row only,
 * the rules callback is asked where _Rules.allows / allows_after is:
 * about a sticky hint that fits, about each scanned host that fits (a
 * refused host is not tested for death), and about each vacate
 * candidate that passes the body and pending checks, with the attempt's
 * moves so far.  Each constrained row placed or committed is reported,
 * and the first fit ends with the caller's validation.
 *
 * Keep this file free of floating-point re-association: it must be
 * compiled with -ffp-contract=off and without -ffast-math, so every
 * expression rounds as Python's float arithmetic does.
 */

#include <stdint.h>
#include <string.h>

/* Admission slack; mirrors repro.numerics.CAPACITY_SLACK. */
#define SLACK 1e-9

/* Outcome of repro_interval. */
#define DONE 0
#define NO_FIT 1          /* error_row fits on no host */
#define COMMIT_MISFIT 2   /* error_row does not fit on error_host */
#define CALLBACK_FAILED 3 /* a callback raised; Python re-raises */

/* Counters in stats, summed over a plan's intervals. */
enum {
  STICKY, DISPLACED, DEAD, RULED_OUT, COMMITS, COST_REFUSED,
  HINT_REFUSED, HOST_REFUSED, TARGET_REFUSED, VALIDATED, N_STATS
};

/* Migration cost of one VM of memory_gb into *cost_wh; non-zero when
 * the callback failed. */
typedef int (*repro_cost_fn)(double memory_gb, double *cost_wh);

/* What the rules callback is asked to do. */
enum {
  ALLOWS,        /* may row go to host, given the interval's assignment? */
  ALLOWS_AFTER,  /* the same after the n_moves (rows, hosts) of a vacate */
  PLACE,         /* row now runs on host */
  VALIDATE       /* check the interval's assignment after the first fit */
};

/* Answers 1 (allowed) or 0 (refused) to ALLOWS and ALLOWS_AFTER, 0 to
 * PLACE and VALIDATE, and -1 when the callback failed. */
typedef int (*repro_rules_fn)(int64_t op, int64_t row, int64_t host,
                              int64_t n_moves, const int64_t *move_rows,
                              const int64_t *move_hosts);

/* One plan.  Field order matters: interval_kernel.py mirrors it. */
typedef struct {
  int64_t n_vms;
  int64_t n_hosts;
  int64_t n_intervals;
  int64_t max_sweeps;
  int64_t consider_cost;
  /* Sized demands, (n_vms, n_intervals) row-major: the demand table. */
  const double *cpu;
  const double *mem;
  const double *net;
  const double *dsk;
  const int64_t *id_rank;  /* n_vms: each row's rank in id order */
  /* (9, n_hosts): host cpu and memory (the FFD reference), bound-scaled
   * cpu and memory capacities, the four admission limits (capacity +
   * 1e-9), and idle watts times interval hours. */
  const double *hosts;
  int64_t *host_of_row;  /* n_vms: previous hosts in, this interval's out */
  int64_t *order;        /* n_vms out: the FFD order */
  double *work_f;        /* repro_interval_workspace() doubles */
  int64_t *work_i;       /* repro_interval_workspace() integers */
  int64_t *stats;        /* N_STATS counters */
  repro_cost_fn cost;
  /* n_vms flags, 1 for a row some constraint names; NULL for a plan
   * without constraints, which asks no rules. */
  const int64_t *constrained;
  repro_rules_fn rules;
  int64_t error_row;
  int64_t error_host;
} repro_interval_plan;

typedef struct {
  double *cpu, *mem, *net, *dsk;  /* this interval's column, gathered */
  const double *ref_cpu, *ref_mem, *cap_cpu, *cap_mem;
  const double *eps_cpu, *eps_mem, *eps_net, *eps_dsk, *idle_wh;
  double *score, *sufmin_cpu, *sufmin_mem;
  double *body_cpu, *body_mem, *body_net, *body_dsk;
  double *pend_cpu, *pend_mem, *pend_net, *pend_dsk, *residual;
  int64_t *tmp, *next, *rows, *moves;
  int64_t *count, *head, *tail, *warm, *scan, *dead, *live, *cands, *srcs,
      *pending;
} state;

/* Sizes of the two workspaces a plan of this shape needs. */
void repro_interval_workspace(int64_t n_vms, int64_t n_hosts,
                              int64_t *sizes) {
  sizes[0] = 7 * n_vms + 9 * n_hosts;
  sizes[1] = (n_vms > n_hosts ? n_vms : n_hosts) + 3 * n_vms + 10 * n_hosts;
}

static void carve(const repro_interval_plan *p, int64_t interval,
                  state *s) {
  const int64_t n = p->n_vms, h = p->n_hosts;
  double *f = p->work_f;
  int64_t *i = p->work_i;
  s->cpu = f; f += n;
  s->mem = f; f += n;
  s->net = f; f += n;
  s->dsk = f; f += n;
  for (int64_t row = 0, at = interval; row < n; row++, at += p->n_intervals) {
    s->cpu[row] = p->cpu[at];
    s->mem[row] = p->mem[at];
    s->net[row] = p->net[at];
    s->dsk[row] = p->dsk[at];
  }
  s->ref_cpu = p->hosts;
  s->ref_mem = p->hosts + h;
  s->cap_cpu = p->hosts + 2 * h;
  s->cap_mem = p->hosts + 3 * h;
  s->eps_cpu = p->hosts + 4 * h;
  s->eps_mem = p->hosts + 5 * h;
  s->eps_net = p->hosts + 6 * h;
  s->eps_dsk = p->hosts + 7 * h;
  s->idle_wh = p->hosts + 8 * h;
  s->score = f; f += n;
  s->sufmin_cpu = f; f += n;
  s->sufmin_mem = f; f += n;
  s->body_cpu = f; f += h;
  s->body_mem = f; f += h;
  s->body_net = f; f += h;
  s->body_dsk = f; f += h;
  s->pend_cpu = f; f += h;
  s->pend_mem = f; f += h;
  s->pend_net = f; f += h;
  s->pend_dsk = f; f += h;
  s->residual = f;
  s->tmp = i; i += n > h ? n : h;
  s->next = i; i += n;
  s->rows = i; i += n;
  s->moves = i; i += n;
  s->count = i; i += h;
  s->head = i; i += h;
  s->tail = i; i += h;
  s->warm = i; i += h;
  s->scan = i; i += h;
  s->dead = i; i += h;
  s->live = i; i += h;
  s->cands = i; i += h;
  s->srcs = i; i += h;
  s->pending = i;
}

/* ---- ordering ---------------------------------------------------- */

enum { BY_FFD, BY_EMPTIEST, BY_KEY_ASCENDING, BY_KEY_DESCENDING };

typedef struct {
  int mode;
  const double *key;       /* FFD score, body cpu, or the sort key */
  const int64_t *integer;  /* FFD id rank, or row count */
} order_by;

/* Does item a go strictly before item b? */
static int before(const order_by *by, int64_t a, int64_t b) {
  const double ka = by->key[a], kb = by->key[b];
  switch (by->mode) {
    case BY_FFD:
      if (ka != ka || kb != kb) {  /* NaN sorts last, as in numpy */
        if (ka != ka && kb != kb) return by->integer[a] < by->integer[b];
        return kb != kb;
      }
      if (ka != kb) return ka > kb;
      return by->integer[a] < by->integer[b];
    case BY_EMPTIEST:  /* the tuple (row count, body cpu) */
      if (by->integer[a] != by->integer[b])
        return by->integer[a] < by->integer[b];
      return ka < kb;
    case BY_KEY_ASCENDING:
      return ka < kb;
    default:
      return ka > kb;
  }
}

/* Stable bottom-up merge sort: equal items keep their input order. */
static void sort_stable(int64_t *items, int64_t n, int64_t *tmp,
                        const order_by *by) {
  for (int64_t width = 1; width < n; width *= 2) {
    for (int64_t lo = 0; lo < n; lo += 2 * width) {
      const int64_t mid = lo + width < n ? lo + width : n;
      const int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
      int64_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi)
        tmp[k++] = before(by, items[j], items[i]) ? items[j++] : items[i++];
      while (i < mid) tmp[k++] = items[i++];
      while (j < hi) tmp[k++] = items[j++];
    }
    memcpy(items, tmp, (size_t)n * sizeof *items);
  }
}

/* np.maximum and np.minimum: a NaN operand gives NaN. */
static double np_maximum(double a, double b) {
  if (a != a) return a;
  if (b != b) return b;
  return a >= b ? a : b;
}

static double np_minimum(double a, double b) {
  if (a != a) return a;
  if (b != b) return b;
  return a <= b ? a : b;
}

/* ---- plan state -------------------------------------------------- */

static int fits(const state *s, int64_t host, double c, double m, double n,
                double d) {
  return s->body_cpu[host] + c <= s->eps_cpu[host] &&
         s->body_mem[host] + m <= s->eps_mem[host] &&
         s->body_net[host] + n <= s->eps_net[host] &&
         s->body_dsk[host] + d <= s->eps_dsk[host];
}

/* IncrementalPlan.assign: append the row, fold its demand in. */
static void assign(const repro_interval_plan *p, state *s, int64_t row,
                   int64_t host) {
  s->next[row] = -1;
  if (s->tail[host] >= 0)
    s->next[s->tail[host]] = row;
  else
    s->head[host] = row;
  s->tail[host] = row;
  s->count[host] += 1;
  s->body_cpu[host] += s->cpu[row];
  s->body_mem[host] += s->mem[row];
  s->body_net[host] += s->net[row];
  s->body_dsk[host] += s->dsk[row];
  p->host_of_row[row] = host;
}

/* ---- sticky first fit -------------------------------------------- */

/* Packs every row; returns how many hosts it opened (their appearance
 * order is in live), or -NO_FIT / -CALLBACK_FAILED. */
static int64_t first_fit(repro_interval_plan *p, state *s) {
  const int64_t n = p->n_vms, h = p->n_hosts;
  int64_t *order = p->order;
  int64_t *stats = p->stats;

  /* Warm hosts (the previous interval's) first, then cold, by index. */
  memset(s->warm, 0, (size_t)h * sizeof *s->warm);
  for (int64_t row = 0; row < n; row++)
    if (p->host_of_row[row] >= 0) s->warm[p->host_of_row[row]] = 1;
  int64_t k = 0;
  for (int64_t host = 0; host < h; host++)
    if (s->warm[host]) s->scan[k++] = host;
  for (int64_t host = 0; host < h; host++)
    if (!s->warm[host]) s->scan[k++] = host;

  const int64_t ref = s->scan[0];
  for (int64_t row = 0; row < n; row++) {
    s->score[row] = np_maximum(s->cpu[row] / s->ref_cpu[ref],
                               s->mem[row] / s->ref_mem[ref]);
    order[row] = row;
  }
  const order_by ffd = {BY_FFD, s->score, p->id_rank};
  sort_stable(order, n, s->tmp, &ffd);
  const int64_t *constrained = p->constrained;
  if (constrained != NULL) {  /* constrained rows first, stably */
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++)
      if (constrained[order[i]]) s->tmp[k++] = order[i];
    for (int64_t i = 0; i < n; i++)
      if (!constrained[order[i]]) s->tmp[k++] = order[i];
    memcpy(order, s->tmp, (size_t)n * sizeof *order);
  }
  if (n > 0) {
    s->sufmin_cpu[n - 1] = s->cpu[order[n - 1]];
    s->sufmin_mem[n - 1] = s->mem[order[n - 1]];
  }
  for (int64_t position = n - 2; position >= 0; position--) {
    const int64_t row = order[position];
    s->sufmin_cpu[position] = np_minimum(s->sufmin_cpu[position + 1],
                                         s->cpu[row]);
    s->sufmin_mem[position] = np_minimum(s->sufmin_mem[position + 1],
                                         s->mem[row]);
  }

  /* IncrementalPlan.reset; host_of_row still holds the hints and each
   * row's entry is overwritten only when that row is placed. */
  for (int64_t host = 0; host < h; host++) {
    s->body_cpu[host] = 0.0;
    s->body_mem[host] = 0.0;
    s->body_net[host] = 0.0;
    s->body_dsk[host] = 0.0;
    s->count[host] = 0;
    s->head[host] = -1;
    s->tail[host] = -1;
    s->dead[host] = 0;
  }
  int64_t opened = 0;
  for (int64_t position = 0; position < n; position++) {
    const int64_t row = order[position];
    const double c = s->cpu[row], m = s->mem[row], nt = s->net[row],
                 d = s->dsk[row];
    const int64_t hint = p->host_of_row[row];
    const int check = constrained != NULL && constrained[row];
    int64_t target = -1;
    if (hint >= 0) {
      if (!fits(s, hint, c, m, nt, d)) {
        stats[DISPLACED] += 1;
      } else {
        const int allowed =
            check ? p->rules(ALLOWS, row, hint, 0, NULL, NULL) : 1;
        if (allowed < 0) return -CALLBACK_FAILED;
        if (allowed) {
          target = hint;
          stats[STICKY] += 1;
        } else {
          stats[HINT_REFUSED] += 1;
        }
      }
    }
    if (target < 0) {
      const double min_cpu = s->sufmin_cpu[position];
      const double min_mem = s->sufmin_mem[position];
      for (int64_t i = 0; i < h; i++) {
        const int64_t host = s->scan[i];
        if (s->dead[host]) continue;
        if (fits(s, host, c, m, nt, d)) {
          const int allowed =
              check ? p->rules(ALLOWS, row, host, 0, NULL, NULL) : 1;
          if (allowed < 0) return -CALLBACK_FAILED;
          if (allowed) {
            target = host;
            break;
          }
          stats[HOST_REFUSED] += 1;
          continue;  /* a refused host is not tested for death */
        }
        if (min_cpu > s->cap_cpu[host] - s->body_cpu[host] + SLACK ||
            min_mem > s->cap_mem[host] - s->body_mem[host] + SLACK) {
          s->dead[host] = 1;
          stats[DEAD] += 1;
        }
      }
      if (target < 0) {
        p->error_row = row;
        return -NO_FIT;
      }
    }
    if (s->count[target] == 0) s->live[opened++] = target;
    assign(p, s, row, target);
    if (check && p->rules(PLACE, row, target, 0, NULL, NULL) < 0)
      return -CALLBACK_FAILED;
  }
  if (constrained != NULL) {
    if (p->rules(VALIDATE, -1, -1, 0, NULL, NULL) < 0)
      return -CALLBACK_FAILED;
    stats[VALIDATED] += 1;
  }
  return opened;
}

/* ---- vacate ------------------------------------------------------ */

/* _try_vacate: 1 when source was emptied into the n_cands candidates,
 * 0 when not, or -COMMIT_MISFIT / -CALLBACK_FAILED. */
static int64_t try_vacate(repro_interval_plan *p, state *s, int64_t source,
                          int64_t n_cands) {
  int64_t n_rows = 0;
  for (int64_t row = s->head[source]; row >= 0; row = s->next[row])
    s->rows[n_rows++] = row;
  const order_by largest = {BY_KEY_DESCENDING, s->cpu, NULL};
  sort_stable(s->rows, n_rows, s->tmp, &largest);

  /* IncrementalPlan.vacate_targets; rows[:placed] moves to
   * moves[:placed] so far. */
  const int64_t *constrained = p->constrained;
  int failed = 0;
  int64_t placed = 0;
  for (; placed < n_rows; placed++) {
    const int64_t row = s->rows[placed];
    const double c = s->cpu[row], m = s->mem[row], nt = s->net[row],
                 d = s->dsk[row];
    const int check = constrained != NULL && constrained[row];
    int64_t found = -1;
    for (int64_t i = 0; i < n_cands; i++) {
      const int64_t host = s->cands[i];
      if (host == source || !fits(s, host, c, m, nt, d)) continue;
      if (s->pending[host] &&
          !(s->body_cpu[host] + s->pend_cpu[host] + c <= s->eps_cpu[host] &&
            s->body_mem[host] + s->pend_mem[host] + m <= s->eps_mem[host] &&
            s->body_net[host] + s->pend_net[host] + nt <= s->eps_net[host] &&
            s->body_dsk[host] + s->pend_dsk[host] + d <= s->eps_dsk[host]))
        continue;
      if (check) {
        const int allowed = p->rules(ALLOWS_AFTER, row, host, placed,
                                     s->rows, s->moves);
        if (allowed < 0) {
          failed = 1;
          break;
        }
        if (!allowed) {
          p->stats[TARGET_REFUSED] += 1;
          continue;
        }
      }
      found = host;
      break;
    }
    if (found < 0) break;
    s->moves[placed] = found;
    if (!s->pending[found]) {
      s->pending[found] = 1;
      s->pend_cpu[found] = 0.0;
      s->pend_mem[found] = 0.0;
      s->pend_net[found] = 0.0;
      s->pend_dsk[found] = 0.0;
    }
    s->pend_cpu[found] = s->pend_cpu[found] + c;
    s->pend_mem[found] = s->pend_mem[found] + m;
    s->pend_net[found] = s->pend_net[found] + nt;
    s->pend_dsk[found] = s->pend_dsk[found] + d;
  }
  for (int64_t i = 0; i < placed; i++) s->pending[s->moves[i]] = 0;
  if (failed) return -CALLBACK_FAILED;
  if (placed < n_rows) return 0;

  if (p->consider_cost) {
    double cost_wh = 0.0;
    for (int64_t i = 0; i < n_rows; i++) {
      double cost;
      if (p->cost(s->mem[s->rows[i]], &cost) != 0) return -CALLBACK_FAILED;
      cost_wh = cost_wh + cost;
    }
    if (s->idle_wh[source] <= cost_wh) {
      p->stats[COST_REFUSED] += 1;
      return 0;
    }
  }

  /* IncrementalPlan.commit_vacate */
  for (int64_t i = 0; i < n_rows; i++) {
    const int64_t row = s->rows[i], host = s->moves[i];
    if (!fits(s, host, s->cpu[row], s->mem[row], s->net[row], s->dsk[row])) {
      p->error_row = row;
      p->error_host = host;
      return -COMMIT_MISFIT;
    }
    assign(p, s, row, host);
  }
  s->body_cpu[source] = 0.0;
  s->body_mem[source] = 0.0;
  s->body_net[source] = 0.0;
  s->body_dsk[source] = 0.0;
  s->count[source] = 0;
  s->head[source] = -1;
  s->tail[source] = -1;
  if (constrained != NULL)
    for (int64_t i = 0; i < n_rows; i++)
      if (constrained[s->rows[i]] &&
          p->rules(PLACE, s->rows[i], s->moves[i], 0, NULL, NULL) < 0)
        return -CALLBACK_FAILED;
  return 1;
}

/* _vacate_intervals_hosts over the n_live hosts opened by first_fit. */
static int64_t vacate(repro_interval_plan *p, state *s, int64_t n_live) {
  int64_t *live = s->live;
  int64_t n_cands = -1;  /* -1: the candidate order must be rebuilt */
  double load_cpu = 0.0, load_mem = 0.0, room_cpu = 0.0, room_mem = 0.0;
  double margin_cpu = 0.0, margin_mem = 0.0;
  for (int64_t sweep = 0; sweep < p->max_sweeps; sweep++) {
    int changed = 0;
    const int64_t n_bins = n_live;
    memcpy(s->srcs, live, (size_t)n_live * sizeof *live);
    const order_by emptiest = {BY_EMPTIEST, s->body_cpu, s->count};
    sort_stable(s->srcs, n_live, s->tmp, &emptiest);
    for (int64_t i = 0; i < n_live; i++) {
      const int64_t source = s->srcs[i];
      if (s->count[source] == 0 || n_bins <= 1) continue;
      if (n_cands < 0) {
        n_cands = 0;
        for (int64_t j = 0; j < n_live; j++) {
          const int64_t host = live[j];
          if (!s->count[host]) continue;
          const double a = (s->cap_cpu[host] - s->body_cpu[host]) /
                           s->cap_cpu[host];
          const double b = (s->cap_mem[host] - s->body_mem[host]) /
                           s->cap_mem[host];
          s->residual[host] = b < a ? b : a;
          s->cands[n_cands++] = host;
        }
        const order_by fullest = {BY_KEY_ASCENDING, s->residual, NULL};
        sort_stable(s->cands, n_cands, s->tmp, &fullest);
        /* IncrementalPlan.vacate_ruled_out */
        load_cpu = load_mem = room_cpu = room_mem = 0.0;
        for (int64_t j = 0; j < n_cands; j++) {
          const int64_t host = s->cands[j];
          load_cpu += s->body_cpu[host];
          load_mem += s->body_mem[host];
          room_cpu += s->eps_cpu[host];
          room_mem += s->eps_mem[host];
        }
        margin_cpu = 1e-9 * room_cpu;
        margin_mem = 1e-9 * room_mem;
      }
      if (load_cpu > room_cpu - s->eps_cpu[source] + margin_cpu ||
          load_mem > room_mem - s->eps_mem[source] + margin_mem) {
        p->stats[RULED_OUT] += 1;
        continue;
      }
      const int64_t result = try_vacate(p, s, source, n_cands);
      if (result < 0) return result;
      if (result) {
        changed = 1;
        n_cands = -1;
        p->stats[COMMITS] += 1;
      }
    }
    int64_t kept = 0;
    for (int64_t i = 0; i < n_live; i++)
      if (s->count[live[i]]) live[kept++] = live[i];
    n_live = kept;
    if (!changed) break;
  }
  return 0;
}

/* Plans one interval: p->order and p->host_of_row on DONE. */
int64_t repro_interval(repro_interval_plan *p, int64_t interval) {
  state s;
  carve(p, interval, &s);
  const int64_t opened = first_fit(p, &s);
  if (opened < 0) return -opened;
  return -vacate(p, &s, opened);
}
