/* The engine's passes in C: the same rules, in the same order, as the
 * Python loop in engine.py, which stays the reference this kernel is tested
 * against.
 *
 * pd_run plays up to a given number of passes in one call and stops after
 * the pass that converges. For each pass it writes the counts and, when
 * asked, the integer parts of the Gini coefficient into caller buffers;
 * engine.py divides them. How each kind decides is not written here: every
 * action is looked up in strategies.ACTIONS, which the caller appends to
 * params. The caller also checks every bound first: each target lies in
 * [0, n), the order holds valid node ids, every kind indexes a row of the
 * table, and no balance, bank or flow can leave int64.
 *
 * Every draw comes from a copy of a random.Random's MT19937 state, which
 * _kernel.py hands over (see its docstring): pd_shuffle draws as
 * randrange, pd_sample as sample and pd_run as random(), carrying the
 * state from call to call.
 *
 * pd_gini gives the integer parts of the Gini coefficient of any int64
 * array, from counts by value when the values span a narrow range and from
 * a radix sort otherwise; metrics.py divides them. These entries work in
 * scratch arrays their callers size; only pd_read_edges and pd_edges_csr,
 * at the end, which parse edge-list files into the CSR arrays pd_run plays
 * on, allocate.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

/* params: n, live, bank_infinite, coop_reward, defect_penalty, betrayal_transfer,
 * then ACTIONS row by row: [P_ACTIONS + 3 * kind + last code] is 0 (SILENT),
 * 1 (BETRAY) or DRAW, one random() draw, < 0.5 for SILENT */
enum { P_N, P_LIVE, P_INFINITE, P_REWARD, P_PENALTY, P_TRANSFER, P_ACTIONS };
#define DRAW 2

/* acc, carried from call to call: bank_balance, the length of order (the
 * nodes that held capital after the last pass played), and whether that
 * pass left every balance where it started */
enum { A_BANK, A_LIVE, A_CONVERGED };

/* One row of pd_run's stats per pass: its counts, the bank balance after it
 * and the sum of the balances of order */
enum { S_PLAYED, S_SKIPPED, S_INFLOW, S_OUTFLOW, S_BANK, S_TOTAL, S_FIELDS };

/* CPython's MT19937 for the length of one call: the state words, the index
 * of the next word and the tempered outputs of the current block, so that a
 * draw is one load. gen_open tempers the block the index points into;
 * gen_next twists and tempers a whole new block when that one runs out;
 * gen_close writes the index back to mt[MT_N]. */
struct gen {
    uint32_t *mt;
    uint32_t i;
    uint32_t out[MT_N];
};

static void temper_block(struct gen *g)
{
    int k;

    for (k = 0; k < MT_N; k++) {
        uint32_t y = g->mt[k];
        y ^= (y >> 11);
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        y ^= (y >> 18);
        g->out[k] = y;
    }
}

/* The next 624 state words, without a branch on the low bit. */
static void twist(uint32_t *mt)
{
    uint32_t y;
    int kk;

    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
}

static void gen_open(struct gen *g, uint32_t *mt)
{
    g->mt = mt;
    g->i = mt[MT_N];
    temper_block(g);
}

static void gen_close(const struct gen *g) { g->mt[MT_N] = g->i; }

static uint32_t gen_next(struct gen *g)
{
    if (g->i >= MT_N) {
        twist(g->mt);
        temper_block(g);
        g->i = 0;
    }
    return g->out[g->i++];
}

/* random.random(): 53 random bits, exactly as CPython builds them. */
static double random_double(struct gen *g)
{
    uint32_t a = gen_next(g) >> 5, b = gen_next(g) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static int8_t act(const int64_t *params, int8_t kind, int8_t code, struct gen *g)
{
    const int64_t action = params[P_ACTIONS + 3 * kind + code];
    return action != DRAW ? (int8_t)action : random_double(g) < 0.5 ? 0 : 1;
}

static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

/* Play one pass over order[0..m) and write its counts to row[S_PLAYED ..
 * S_OUTFLOW], carrying the bank balance in acc.
 * Returns 1 when the pass left every balance where it started (the run has
 * converged), else 0. */
static int play_pass(const int64_t *order, int64_t m, const int64_t *offsets,
                     const int32_t *targets, const int8_t *kinds, int8_t *last, int64_t *bal,
                     int64_t *start, const int64_t *params, int64_t *acc, struct gen *g,
                     int64_t *row)
{
    const int64_t n = params[P_N], reward = params[P_REWARD], penalty = params[P_PENALTY],
                  transfer = params[P_TRANSFER];
    const int infinite = (int)params[P_INFINITE];
    const int64_t *eff = params[P_LIVE] ? bal : start;
    int64_t bank = acc[A_BANK], played = 0, skipped = n - m, inflow = 0, outflow = 0;
    int64_t i;

    memcpy(start, bal, (size_t)n * sizeof *bal);
    for (i = 0; i < m; i++) {
        const int64_t v = order[i], lo = offsets[v], degree = offsets[v + 1] - lo;
        int64_t o, payer, payee, t, t1, t2;
        int8_t act_v, act_o;

        if (eff[v] == 0 || degree == 0) {
            skipped++;
            continue;
        }
        o = targets[lo + (int64_t)(random_double(g) * (double)degree)];
        if (eff[o] == 0) {
            skipped++;
            continue;
        }
        act_v = act(params, kinds[v], last[o], g);
        act_o = act(params, kinds[o], last[v], g);

        if (act_v != act_o) { /* the silent player pays the betrayer */
            payer = act_v ? o : v;
            payee = act_v ? v : o;
            t = min64(transfer, eff[payer]);
            bal[payer] = eff[payer] - t;
            bal[payee] = eff[payee] + t;
        } else if (act_v == 0) { /* both silent: the bank pays both or neither */
            if (infinite || bank >= 2 * reward) {
                bal[v] = eff[v] + reward;
                bal[o] = eff[o] + reward;
                bank -= 2 * reward;
                outflow += 2 * reward;
            }
        } else { /* both betray: both pay the bank */
            t1 = min64(penalty, eff[v]);
            t2 = min64(penalty, eff[o]);
            bal[v] = eff[v] - t1;
            bal[o] = eff[o] - t2;
            bank += t1 + t2;
            inflow += t1 + t2;
        }
        last[v] = act_v;
        last[o] = act_o;
        played++;
    }
    acc[A_BANK] = bank;
    row[S_PLAYED] = played;
    row[S_SKIPPED] = skipped;
    row[S_INFLOW] = inflow;
    row[S_OUTFLOW] = outflow;
    return memcmp(bal, start, (size_t)n * sizeof *bal) == 0;
}

/* weighted and total (see pd_gini) from counts by value, for m <= 2^32 - 1
 * values in [min, min + span] with span < 4 * m and n * m < 2^63, counted
 * in the span + 1 <= 4 * m uint32 slots of scratch. The values v with
 * count c take the ranks before + 1 .. before + c, whose coefficients sum
 * to c * (2 * before + c - n) = c * (before - after), with `after` the
 * count of larger values: at most m * n, so int64. Empty slots cost one
 * test each. */
static void gini_by_count(const int64_t *values, int64_t m, int64_t n, uint64_t min,
                          uint64_t span, uint64_t *scratch, __int128 *weighted,
                          unsigned __int128 *total)
{
    uint32_t *count = (uint32_t *)scratch;
    int64_t before = n - m, after, c, i;
    uint64_t s;
    __int128 w = 0;
    unsigned __int128 t = 0;

    memset(count, 0, (span + 1) * sizeof *count);
    for (i = 0; i < m; i++)
        count[(uint64_t)values[i] - min]++;
    for (s = 0; s <= span; s++) {
        if (count[s] == 0)
            continue;
        c = count[s];
        after = n - before - c;
        w += (__int128)(min + s) * (c * (before - after));
        t += (unsigned __int128)(min + s) * (uint64_t)c;
        before += c;
    }
    *weighted = w;
    *total = t;
}

/* weighted and total (see pd_gini) after an LSD radix sort of the values,
 * whose keys take the 2 * m words of scratch, one pass per byte of the
 * maximum; a byte every key shares needs no pass. */
static void gini_by_sort(const int64_t *values, int64_t m, uint64_t n, uint64_t max,
                         uint64_t *scratch, __int128 *weighted, unsigned __int128 *total)
{
    uint64_t *keys = scratch, *spare = scratch + m, *swap;
    __int128 coeff = (__int128)n - 2 * (__int128)m + 1, w = 0;
    unsigned __int128 t = 0;
    int64_t i;
    int shift;

    memcpy(keys, values, (size_t)m * sizeof *keys);
    for (shift = 0; shift < 64 && (max >> shift) != 0; shift += 8) {
        int64_t count[256] = {0}, pos = 0, c;
        int d;

        for (i = 0; i < m; i++)
            count[(keys[i] >> shift) & 0xff]++;
        if (count[(keys[0] >> shift) & 0xff] == m)
            continue;
        for (d = 0; d < 256; d++) {
            c = count[d];
            count[d] = pos;
            pos += c;
        }
        for (i = 0; i < m; i++)
            spare[count[(keys[i] >> shift) & 0xff]++] = keys[i];
        swap = keys;
        keys = spare;
        spare = swap;
    }
    for (i = 0; i < m; i++, coeff += 2) {
        w += coeff * keys[i];
        t += keys[i];
    }
    *weighted = w;
    *total = t;
}

/* The Gini sums of values[0..m) padded with n - m zeros (see pd_gini),
 * given their minimum and maximum: from counts by value when the values
 * span a range R = max - min + 1 of at most 4 * m and n * m < 2^63, else
 * from a radix sort. Both routes work in the caller's scratch of 2 * m
 * words: the counts take R <= 4 * m slots of 4 bytes, the sort's keys
 * 2 * m words. Writes weighted to out[0..1] and total to out[2..3], low
 * word first. The sort alone would give the same sums, but the count route
 * stays: balances start equal and move by small payoffs, so they mostly
 * span a narrow range, and one counting pass beats a sort pass per byte of
 * the largest; with the sort alone tests/kernel_ab.py read 1.10-1.27 times
 * the kernel time of mix_bank0, coop_inf and suite_exp2. */
static void gini_sums(const int64_t *values, int64_t m, uint64_t n, uint64_t min, uint64_t max,
                      uint64_t *scratch, uint64_t *out)
{
    __int128 weighted;
    unsigned __int128 total;

    if (m > 0 && m <= UINT32_MAX && max - min < 4 * (uint64_t)m
        && (unsigned __int128)n * (uint64_t)m < (unsigned __int128)1 << 63)
        gini_by_count(values, m, (int64_t)n, min, max - min, scratch, &weighted, &total);
    else
        gini_by_sort(values, m, n, max, scratch, &weighted, &total);
    out[0] = (uint64_t)weighted;
    out[1] = (uint64_t)((unsigned __int128)weighted >> 64);
    out[2] = (uint64_t)total;
    out[3] = (uint64_t)(total >> 64);
}

/* The Gini coefficient of values[0..m) padded with n - m zeros is
 * weighted / (n * total), with weighted = sum_i (2i - n - 1) x_i over the
 * ascending order (1-based ranks; the zeros take the lowest). Writes
 * weighted and total to out[0..3], working in scratch[0..2m) (see
 * gini_sums), and returns 0; returns -1, writing nothing, when a value is
 * negative. The caller checks n * m < 2^64, so that no sum below leaves
 * __int128: |partial sums| <= n * total < n * m * 2^63. */
int pd_gini(const int64_t *values, int64_t m, uint64_t n, uint64_t *scratch, uint64_t *out)
{
    uint64_t min = UINT64_MAX, max = 0;
    int64_t i;

    for (i = 0; i < m; i++) {
        if (values[i] < 0)
            return -1;
        if ((uint64_t)values[i] > max)
            max = (uint64_t)values[i];
        if ((uint64_t)values[i] < min)
            min = (uint64_t)values[i];
    }
    gini_sums(values, m, n, min, max, scratch, out);
    return 0;
}

/* Play up to `limit` passes (limit >= 1) of the run whose state the
 * arguments hold, and stop after the first pass that converges. After each
 * pass, in one walk over order, drop its nodes at zero (in place, keeping
 * the order of the rest) and copy the balances of the others into held;
 * write the pass's row of stats (stats[S_FIELDS * pass ..]); and, when
 * sums is not NULL, the Gini sums of all n balances (sums[4 * pass ..], as
 * pd_gini writes them, in scratch[0..2n)). Returns the number of passes
 * played. */
int64_t pd_run(int64_t limit, int64_t *order, int64_t *held, const int64_t *offsets,
               const int32_t *targets, const int8_t *kinds, int8_t *last, int64_t *bal,
               int64_t *start, const int64_t *params, int64_t *acc, uint32_t *mt,
               int64_t *stats, uint64_t *sums, uint64_t *scratch)
{
    const uint64_t n = (uint64_t)params[P_N];
    int64_t m = acc[A_LIVE], pass, i, kept, total;
    uint64_t min, max;
    int converged = 0;
    struct gen g;

    gen_open(&g, mt);
    for (pass = 0; pass < limit && !converged; pass++) {
        int64_t *row = stats + S_FIELDS * pass;

        converged = play_pass(order, m, offsets, targets, kinds, last, bal, start, params, acc,
                              &g, row);
        /* The minimum and maximum that gini_sums needs are taken in this
         * walk, which reads every balance anyway, and not by a second scan
         * of held: that scan would be one more loop and one more read of m
         * words, and tests/kernel_ab.py found it no faster on any workload. */
        min = UINT64_MAX;
        max = 0;
        total = 0;
        for (i = kept = 0; i < m; i++) {
            const int64_t v = order[i];
            const uint64_t x = (uint64_t)bal[v];

            if (x == 0)
                continue;
            order[kept] = v;
            held[kept++] = (int64_t)x;
            total += (int64_t)x;
            min = x < min ? x : min;
            max = x > max ? x : max;
        }
        m = kept;
        row[S_BANK] = acc[A_BANK];
        row[S_TOTAL] = total;
        if (sums != NULL)
            gini_sums(held, m, n, min, max, scratch, sums + 4 * pass);
    }
    gen_close(&g);
    acc[A_LIVE] = m;
    acc[A_CONVERGED] = converged;
    return pass;
}

/* random.Random._randbelow(bound) for 1 <= bound < 2^32, as CPython draws
 * it: getrandbits(k), k = bound.bit_length(), until the draw is below
 * bound. For k <= 32, getrandbits(k) is the top k bits of one output. */
static uint32_t randbelow(struct gen *g, uint32_t bound)
{
    const int k = 32 - __builtin_clz(bound);
    uint32_t r;

    do
        r = gen_next(g) >> (32 - k);
    while (r >= bound);
    return r;
}

/* Fill order[0..n) with 0, 1, ..., n - 1 and shuffle it as
 * engine.shuffle_order does with a random.Random: for i from n - 1 down to
 * 1, swap order[i] with order[j], j = randrange(i + 1). Needs n < 2^32. */
void pd_shuffle(int64_t *order, int64_t n, uint32_t *mt)
{
    struct gen g;
    int64_t i, swap;
    uint32_t r;

    for (i = 0; i < n; i++)
        order[i] = i;
    gen_open(&g, mt);
    for (i = n - 1; i > 0; i--) {
        r = randbelow(&g, (uint32_t)(i + 1));
        swap = order[i];
        order[i] = order[r];
        order[r] = swap;
    }
    gen_close(&g);
}

/* Write to out[0..k) the positions random.Random.sample(range(m), k)
 * returns, in draw order, for 0 <= k <= m < 2^32, drawing as CPython's
 * sample does by the route the caller names (by_pool), which it works out
 * with CPython's own expression. The pool route draws j = randbelow(m - i)
 * for the i-th position, takes pool[j] and moves the last position not yet
 * taken, pool[m - i - 1], into its place. The set route draws
 * j = randbelow(m) until j was not taken before, which an m-byte mask
 * records. The pool or the mask takes scratch[0..m). */
void pd_sample(int64_t *out, int64_t m, int64_t k, int64_t by_pool, int64_t *scratch, uint32_t *mt)
{
    struct gen g;
    int64_t *pool = scratch, i, j;
    uint8_t *taken = (uint8_t *)scratch;

    if (by_pool)
        for (i = 0; i < m; i++)
            pool[i] = i;
    else
        memset(taken, 0, (size_t)m);
    gen_open(&g, mt);
    for (i = 0; i < k; i++) {
        if (by_pool) {
            j = randbelow(&g, (uint32_t)(m - i));
            out[i] = pool[j];
            pool[j] = pool[m - i - 1];
        } else {
            do
                j = randbelow(&g, (uint32_t)m);
            while (taken[j]);
            taken[j] = 1;
            out[i] = j;
        }
    }
    gen_close(&g);
}

/* Edge-list reader: the rules of graph.graph_from_edges, which stays the
 * reference, on a strict ASCII grammar. Labels are optionally signed
 * decimal integers that fit int64. A snap line holds two labels between
 * spaces or tabs, or is a '#' comment; a bitcoin_otc line holds four
 * comma-separated fields, of which the first two are labels (spaces or
 * tabs may surround them). Blank lines are skipped, and lines end in "\n"
 * or "\r\n". Anything else (a byte >= 0x80 or another control byte, a lone
 * "\r", a label outside int64 or in another spelling, a wrong field count)
 * makes pd_read_edges return nonzero, and the caller reruns the Python
 * reader, which builds the graph or raises the exact error.
 *
 * pd_read_edges first counts the lines, in a plain loop the compiler
 * vectorizes, to size the pairs. It then parses each line in one scan that
 * finds the line's end as it goes, reads each label a word at a time (see
 * parse_label), and maps each label to an int32 id, in order of first
 * appearance; a self-loop is skipped before its labels are registered. It
 * keeps no state between calls: ctypes releases the GIL, so two threads may
 * parse at once. pd_edges_csr then writes the labels, the CSR offsets and
 * the sorted, deduplicated targets into the caller's buffers, sized from the
 * counts the first call returned. */

enum { FORMAT_SNAP, FORMAT_BITCOIN_OTC };
enum { READ_OK, READ_GRAMMAR, READ_NO_MEMORY, READ_EMPTY };

struct edge_reader {
    int64_t n, pairs, label_cap, slot_cap;
    int64_t *labels; /* id -> label */
    int32_t *slots;  /* open-addressing table of id + 1 (0: free), keyed by label */
    int32_t *ends;   /* each pair's two endpoint ids */
};

static void reader_free(struct edge_reader *r)
{
    free(r->labels);
    free(r->slots);
    free(r->ends);
    free(r);
}

static int is_digit(char c) { return (unsigned)(unsigned char)c - '0' < 10u; }
static int is_blank(char c) { return c == ' ' || c == '\t'; }
/* The bytes a comment or a bitcoin_otc rating or time field may hold. */
static int is_text(char c) { return (c >= ' ' && c <= '~') || c == '\t'; }

static const char *skip_blanks(const char *s, const char *end)
{
    while (s < end && is_blank(*s))
        s++;
    return s;
}

/* s[0..8) as one word, s[0] in the lowest byte, whatever the byte order. */
static uint64_t word_at(const char *s)
{
    const unsigned char *b = (const unsigned char *)s;

    return (uint64_t)b[0] | (uint64_t)b[1] << 8 | (uint64_t)b[2] << 16 | (uint64_t)b[3] << 24
           | (uint64_t)b[4] << 32 | (uint64_t)b[5] << 40 | (uint64_t)b[6] << 48 | (uint64_t)b[7] << 56;
}

/* The number the 8 bytes of `digits` spell, each a digit's value (0-9),
 * the most significant in the lowest byte. */
static uint64_t eight_digits(uint64_t digits)
{
    digits = (digits * 2561) >> 8 & 0x00ff00ff00ff00ffu;
    digits = (digits * 6553601) >> 16 & 0x0000ffff0000ffffu;
    return (digits * 42949672960001u) >> 32;
}

/* Parse a label at s; return the byte after it, or NULL when there is none
 * or it leaves int64. When 8 bytes are left, its first 8 digits are read as
 * one word: each byte's digit value is its xor with '0', and the first byte
 * whose value is 10 or more (its low 7 bits plus 0x76, or its own top bit,
 * reach 0x80) ends them. The digit loop reads the rest, and tests for
 * overflow only from the 19th digit on: 18 digits fit int64. */
static const char *parse_label(const char *s, const char *end, int64_t *label)
{
    const int negative = s < end && *s == '-';
    const uint64_t limit = (uint64_t)INT64_MAX + (uint64_t)negative;
    const char *first;
    uint64_t value = 0;

    if (s < end && (*s == '-' || *s == '+'))
        s++;
    first = s;
    if (end - s >= 8) {
        const uint64_t values = word_at(s) ^ 0x3030303030303030u;
        const uint64_t stops = (((values & 0x7f7f7f7f7f7f7f7fu) + 0x7676767676767676u) | values)
                               & 0x8080808080808080u;
        const int digits = stops ? __builtin_ctzll(stops) >> 3 : 8;

        if (digits > 0) {
            value = eight_digits(values << (64 - 8 * digits));
            s += digits;
        }
    }
    for (; s < end && is_digit(*s); s++) {
        const unsigned digit = (unsigned)(*s - '0');
        if (s - first >= 18 && value > (limit - digit) / 10)
            return NULL;
        value = value * 10 + digit;
    }
    if (s == first)
        return NULL;
    *label = negative && value ? -(int64_t)(value - 1) - 1 : (int64_t)value;
    return s;
}

static uint64_t slot_of(int64_t label, int64_t cap)
{
    return ((uint64_t)label * 0x9E3779B97F4A7C15u >> 32) & (uint64_t)(cap - 1);
}

/* The id of `label`, registered as the next id when it is new; -1 when
 * memory runs out or ids would leave int32. */
static int64_t intern(struct edge_reader *r, int64_t label)
{
    uint64_t s = slot_of(label, r->slot_cap);
    int64_t id;

    for (; r->slots[s]; s = (s + 1) & (uint64_t)(r->slot_cap - 1))
        if (r->labels[r->slots[s] - 1] == label)
            return r->slots[s] - 1;
    if (r->n == INT32_MAX - 1)
        return -1;
    if (r->n == r->label_cap) {
        int64_t *grown = realloc(r->labels, 2 * (size_t)r->label_cap * sizeof *grown);
        if (grown == NULL)
            return -1;
        r->labels = grown;
        r->label_cap *= 2;
    }
    id = r->n++;
    r->labels[id] = label;
    r->slots[s] = (int32_t)(id + 1);
    if (2 * r->n > r->slot_cap) { /* keep the table at most half full */
        int32_t *grown = calloc(2 * (size_t)r->slot_cap, sizeof *grown);
        int64_t i;
        if (grown == NULL)
            return -1;
        free(r->slots);
        r->slots = grown;
        r->slot_cap *= 2;
        for (i = 0; i < r->n; i++) {
            for (s = slot_of(r->labels[i], r->slot_cap); r->slots[s];
                 s = (s + 1) & (uint64_t)(r->slot_cap - 1))
                ;
            r->slots[s] = (int32_t)(i + 1);
        }
    }
    return id;
}

/* The first byte of the next line when s is at a line end ("\n", "\r\n" or
 * the end of the data), else NULL. */
static const char *line_end(const char *s, const char *end)
{
    if (s == end)
        return s;
    if (*s == '\n')
        return s + 1;
    return *s == '\r' && end - s > 1 && s[1] == '\n' ? s + 2 : NULL;
}

/* Parse the line at s, up to its line end, into its two labels; *edge
 * tells an edge from a blank or comment line. Returns the first byte of
 * the next line, or NULL off the grammar. */
static const char *parse_line(const char *s, const char *end, int format, int *edge, int64_t *u,
                              int64_t *v)
{
    const char *next;
    int field;

    *edge = 0;
    s = skip_blanks(s, end);
    if ((next = line_end(s, end)) != NULL)
        return next;
    if (format == FORMAT_SNAP) {
        if (*s == '#') {
            while (s < end && is_text(*s))
                s++;
            return line_end(s, end);
        }
        s = parse_label(s, end, u);
        if (s == NULL || s == end || !is_blank(*s))
            return NULL;
        s = parse_label(skip_blanks(s, end), end, v);
        if (s == NULL)
            return NULL;
        *edge = 1;
        return line_end(skip_blanks(s, end), end);
    }
    s = parse_label(s, end, u);
    if (s == NULL || (s = skip_blanks(s, end)) == end || *s != ',')
        return NULL;
    s = parse_label(skip_blanks(s + 1, end), end, v);
    if (s == NULL || (s = skip_blanks(s, end)) == end || *s != ',')
        return NULL;
    for (field = 0, s++; s < end && (*s == ',' || is_text(*s)); s++) /* the rating and time fields */
        field += *s == ',';
    *edge = 1;
    return field == 1 ? line_end(s, end) : NULL;
}

/* Parse data[0..size) in `format`. On success writes the label count and
 * the pair count to counts[0..1] and the reader to *out, and returns 0;
 * otherwise returns READ_GRAMMAR, READ_NO_MEMORY or READ_EMPTY and leaves
 * nothing allocated. */
int pd_read_edges(const char *data, int64_t size, int64_t format, int64_t *counts, void **out)
{
    const char *s = data, *end = data + size;
    struct edge_reader *r = calloc(1, sizeof *r);
    int64_t rows = 1, i, u, v, id_u, id_v;
    int status = READ_OK, edge;

    for (i = 0; i < size; i++) /* a plain loop, which the compiler vectorizes */
        rows += data[i] == '\n';
    if (r == NULL)
        return READ_NO_MEMORY;
    r->label_cap = 1024;
    r->slot_cap = 2048;
    r->labels = malloc((size_t)r->label_cap * sizeof *r->labels);
    r->slots = calloc((size_t)r->slot_cap, sizeof *r->slots);
    r->ends = malloc(2 * (size_t)rows * sizeof *r->ends);
    if (r->labels == NULL || r->slots == NULL || r->ends == NULL)
        status = READ_NO_MEMORY;

    while (status == READ_OK && s < end) {
        s = parse_line(s, end, (int)format, &edge, &u, &v);
        if (s == NULL) {
            status = READ_GRAMMAR;
        } else if (edge && u != v) { /* a self-loop's labels are not registered: they are no nodes */
            id_u = intern(r, u);
            id_v = id_u == -1 ? -1 : intern(r, v);
            if (id_v == -1) {
                status = READ_NO_MEMORY;
            } else {
                r->ends[2 * r->pairs] = (int32_t)id_u;
                r->ends[2 * r->pairs + 1] = (int32_t)id_v;
                r->pairs++;
            }
        }
    }
    if (status == READ_OK && r->pairs == 0)
        status = READ_EMPTY;
    if (status != READ_OK) {
        reader_free(r);
        return status;
    }
    free(r->slots);
    r->slots = NULL;
    counts[0] = r->n;
    counts[1] = r->pairs;
    *out = r;
    return READ_OK;
}

/* Write the reader's labels to labels[0..n), the CSR to offsets[0..n] and
 * targets[0..offsets[n]) (targets holds 2 * pairs entries; each row comes
 * out sorted and duplicate-free), and free the reader. Returns 0, or -1
 * when memory runs out. */
int pd_edges_csr(void *reader, int64_t *labels, int64_t *offsets, int32_t *targets)
{
    struct edge_reader *r = reader;
    const int64_t n = r->n, entries = 2 * r->pairs;
    int32_t *ends = r->ends;
    int64_t *cursor = malloc(((size_t)n + 1) * sizeof *cursor);
    int64_t i, v, lo, hi, kept;

    if (cursor == NULL) {
        reader_free(r);
        return -1;
    }
    memcpy(labels, r->labels, (size_t)n * sizeof *labels);
    memset(offsets, 0, ((size_t)n + 1) * sizeof *offsets);
    for (i = 0; i < entries; i++)
        offsets[ends[i] + 1]++;
    for (v = 0; v < n; v++)
        offsets[v + 1] += offsets[v];

    /* Each pair's two directions into the rows of targets, unsorted; then
     * back into ends by walking the rows in ascending order, which leaves
     * every row of ends sorted (a counting sort on the neighbor id). */
    memcpy(cursor, offsets, (size_t)n * sizeof *cursor);
    for (i = 0; i < entries; i += 2) {
        targets[cursor[ends[i]]++] = ends[i + 1];
        targets[cursor[ends[i + 1]]++] = ends[i];
    }
    memcpy(cursor, offsets, (size_t)n * sizeof *cursor);
    for (v = 0; v < n; v++)
        for (i = offsets[v]; i < offsets[v + 1]; i++)
            ends[cursor[targets[i]]++] = (int32_t)v;

    /* Drop the repeats of each sorted row while copying it back. */
    for (v = kept = 0, lo = offsets[0]; v < n; v++, lo = hi) {
        hi = offsets[v + 1];
        offsets[v] = kept;
        for (i = lo; i < hi; i++)
            if (i == lo || ends[i] != ends[i - 1])
                targets[kept++] = ends[i];
    }
    offsets[n] = kept;
    free(cursor);
    reader_free(r);
    return 0;
}

/* Free a reader that pd_edges_csr will not be called on. */
void pd_edges_free(void *reader) { reader_free(reader); }
