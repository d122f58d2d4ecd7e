"""Why the correction counter matters, part 2: repetitive control.

Here the schedule is even monotone (all elements of 1/(k+1) and of a second
sequence b_k, merged in decreasing order) and the control is repetitive,
yet raw indexing still fails: the constraint x^2 <= 1 is only touched at
the merge positions of b_k, and the closed form x = 1 + sqrt(2 b_k) stays
strictly above 1 forever.

The positions n_k of b_k in the merge grow doubly exponentially
(n_k = floor(1/b_k) + k), so the demo runs the engine honestly across the
first positions and then drives the engine's own step map across the later
ones; every skipped position only touches the already-satisfied |y| <= 1.
"""

from feasik import ConfigError, reproduce_a2, reproduce_a2_bracketed
from feasik.certificates import a2_b, a2_schedule

sched = a2_schedule()
print("merged schedule head:",
      ", ".join(f"{sched.r(j):.6g}[{sched.source(j)[0]}]" for j in range(8)))
print("b_k and merge positions (position scan capped at 10^6):")
for k in range(4):
    b = a2_b(k)
    try:
        pos = sched.position_of("b", k, limit=10 ** 6)
        where = str(pos)
    except ConfigError:  # position_of found no b_k within its cap
        where = f"~{int(1.0 / b) + k:,} (beyond scan cap)"
    print(f"  b_{k} = {b:.6g} at position {where}")

print()
rep = reproduce_a2(max_iter=100_000, oracle_up_to=30)
for line in rep.lines():
    print(line)

print("\nswitching to the bracketed counter repairs it:")
for line in reproduce_a2_bracketed().lines():
    print(" ", line)
