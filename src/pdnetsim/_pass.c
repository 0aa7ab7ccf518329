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
 */
#include <stdint.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

enum { COOPERATOR, DEFECTOR, TIT_FOR_TAT, RANDOM };

/* params: n, live, bank_infinite, coop_reward, defect_penalty, betrayal_transfer */
enum { P_N, P_LIVE, P_INFINITE, P_REWARD, P_PENALTY, P_TRANSFER };

/* acc: bank_balance (carried between passes), then this pass's counts */
enum { A_BANK, A_PLAYED, A_SKIPPED, A_INFLOW, A_OUTFLOW, A_DRAINED };

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

/* Play one pass over order[0..m). Returns 1 when it left every balance
 * where it started (the run has converged), else 0. */
int pd_pass(const int64_t *order, int64_t m, const int64_t *offsets, const int32_t *targets,
            const int8_t *kinds, int8_t *last, int64_t *bal, int64_t *start,
            const int64_t *params, int64_t *acc, uint32_t *mt)
{
    const int64_t n = params[P_N], reward = params[P_REWARD], penalty = params[P_PENALTY],
                  transfer = params[P_TRANSFER];
    const int infinite = (int)params[P_INFINITE];
    const int64_t *eff = params[P_LIVE] ? bal : start;
    int64_t bank = acc[A_BANK], played = 0, skipped = n - m, inflow = 0, outflow = 0,
            drained = acc[A_DRAINED];
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
    acc[A_BANK] = bank;
    acc[A_PLAYED] = played;
    acc[A_SKIPPED] = skipped;
    acc[A_INFLOW] = inflow;
    acc[A_OUTFLOW] = outflow;
    acc[A_DRAINED] = drained;
    return memcmp(bal, start, (size_t)n * sizeof *bal) == 0;
}
