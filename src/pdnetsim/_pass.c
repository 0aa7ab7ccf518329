/* One engine pass in C: the same rules, in the same order, as the Python
 * loop in engine.py, which stays the reference this kernel is tested
 * against.
 *
 * The caller checks every bound first: each target lies in [0, n), the
 * order holds valid node ids, and no balance, bank or flow can leave
 * int64. Neighbor picks and Random decisions draw from a copy of the
 * run's MT19937 state (CPython's generator, words 0..623 plus the index
 * in word 624), handed over after the node-order shuffle and carried from
 * pass to pass.
 *
 * pd_gini, in the same library, gives the integer parts of the per-pass
 * Gini coefficient; metrics.py divides them.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

enum { COOPERATOR, DEFECTOR, TIT_FOR_TAT, RANDOM };

/* params: n, live, bank_infinite, coop_reward, defect_penalty, betrayal_transfer */
enum { P_N, P_LIVE, P_INFINITE, P_REWARD, P_PENALTY, P_TRANSFER };

/* acc: bank_balance and the payers drained since order was last rebuilt
 * (both carried between passes), this pass's counts, then the length of
 * order after the pass and the sum of the balances it holds */
enum { A_BANK, A_DRAINED, A_PLAYED, A_SKIPPED, A_INFLOW, A_OUTFLOW, A_LIVE, A_TOTAL };

static uint32_t genrand_uint32(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    int kk;

    if (mt[MT_N] >= MT_N) {
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): 53 random bits, exactly as CPython builds them. */
static double random_double(uint32_t *mt)
{
    uint32_t a = genrand_uint32(mt) >> 5, b = genrand_uint32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static int8_t decide(int8_t kind, int8_t opponent_last, uint32_t *mt)
{
    switch (kind) {
    case COOPERATOR:
        return 0;
    case DEFECTOR:
        return 1;
    case TIT_FOR_TAT:
        return opponent_last < 0 ? 0 : opponent_last;
    default:
        return random_double(mt) < 0.5 ? 0 : 1;
    }
}

static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

/* Play one pass over order[0..m). Then, once more than an eighth of order
 * has been drained, drop its nodes at zero (in place, keeping the order of
 * the rest), and copy the balances of order[0..acc[A_LIVE]) into held.
 * Returns 1 when the pass left every balance where it started (the run has
 * converged), else 0. */
int pd_pass(int64_t *order, int64_t m, int64_t *held, const int64_t *offsets,
            const int32_t *targets, const int8_t *kinds, int8_t *last, int64_t *bal,
            int64_t *start, const int64_t *params, int64_t *acc, uint32_t *mt)
{
    const int64_t n = params[P_N], reward = params[P_REWARD], penalty = params[P_PENALTY],
                  transfer = params[P_TRANSFER];
    const int infinite = (int)params[P_INFINITE];
    const int64_t *eff = params[P_LIVE] ? bal : start;
    int64_t bank = acc[A_BANK], played = 0, skipped = n - m, inflow = 0, outflow = 0,
            drained = acc[A_DRAINED], total = 0, kept;
    int64_t i;
    int converged;

    memcpy(start, bal, (size_t)n * sizeof *bal);
    for (i = 0; i < m; i++) {
        const int64_t v = order[i], lo = offsets[v], degree = offsets[v + 1] - lo;
        int64_t o, payer, payee, t, t1, t2;
        int8_t act_v, act_o;

        if (eff[v] == 0 || degree == 0) {
            skipped++;
            continue;
        }
        o = targets[lo + (int64_t)(random_double(mt) * (double)degree)];
        if (eff[o] == 0) {
            skipped++;
            continue;
        }
        act_v = decide(kinds[v], last[o], mt);
        act_o = decide(kinds[o], last[v], mt);

        if (act_v != act_o) { /* the silent player pays the betrayer */
            payer = act_v ? o : v;
            payee = act_v ? v : o;
            t = min64(transfer, eff[payer]);
            bal[payer] = eff[payer] - t;
            bal[payee] = eff[payee] + t;
            drained += bal[payer] == 0;
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
            drained += (bal[v] == 0) + (bal[o] == 0);
            bank += t1 + t2;
            inflow += t1 + t2;
        }
        last[v] = act_v;
        last[o] = act_o;
        played++;
    }
    converged = memcmp(bal, start, (size_t)n * sizeof *bal) == 0;

    if (drained * 8 > m) {
        for (i = kept = 0; i < m; i++)
            if (bal[order[i]] != 0)
                order[kept++] = order[i];
        m = kept;
        drained = 0;
    }
    for (i = 0; i < m; i++) {
        held[i] = bal[order[i]];
        total += held[i];
    }
    acc[A_BANK] = bank;
    acc[A_DRAINED] = drained;
    acc[A_PLAYED] = played;
    acc[A_SKIPPED] = skipped;
    acc[A_INFLOW] = inflow;
    acc[A_OUTFLOW] = outflow;
    acc[A_LIVE] = m;
    acc[A_TOTAL] = total;
    return converged;
}

/* The Gini coefficient of values[0..m) padded with n - m zeros is
 * weighted / (n * total), with weighted = sum_i (2i - n - 1) x_i over the
 * ascending order (1-based ranks; the zeros take the lowest). Writes
 * weighted to out[0..1] and total to out[2..3], low word first, and
 * returns 0; returns -1, writing nothing, when a value is negative, and -2
 * when memory runs out. The caller checks n * m < 2^64, so that no sum
 * below leaves __int128: |partial sums| <= n * total < n * m * 2^63. */
int pd_gini(const int64_t *values, int64_t m, uint64_t n, uint64_t *out)
{
    uint64_t *buffer, *keys, *spare, *swap, max = 0;
    __int128 weighted = 0, coeff = (__int128)n - 2 * (__int128)m + 1;
    unsigned __int128 total = 0;
    int64_t i;
    int shift;

    for (i = 0; i < m; i++) {
        if (values[i] < 0)
            return -1;
        if ((uint64_t)values[i] > max)
            max = (uint64_t)values[i];
    }
    buffer = malloc((2 * (size_t)m + 1) * sizeof *buffer); /* + 1: never malloc(0) */
    if (buffer == NULL)
        return -2;
    keys = buffer;
    spare = buffer + m;
    memcpy(keys, values, (size_t)m * sizeof *keys);

    /* LSD radix sort, one pass per byte of the maximum; a byte every key
     * shares needs no pass. */
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
        weighted += coeff * keys[i];
        total += keys[i];
    }
    free(buffer);
    out[0] = (uint64_t)weighted;
    out[1] = (uint64_t)((unsigned __int128)weighted >> 64);
    out[2] = (uint64_t)total;
    out[3] = (uint64_t)(total >> 64);
    return 0;
}
