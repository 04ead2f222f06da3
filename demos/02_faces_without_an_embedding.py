"""Recovering the facial structure of a graph that has no embedding.

A torus quotient of the square grid is not planar, yet it locally looks
exactly like the grid.  Its "faces" are recovered combinatorially: a
face-boundary at v is a peripheral cycle (induced and non-separating) of
the D_2 ball at v.  On the torus these come out as precisely the sixteen
unit squares the quotient inherits.
"""

from coverkit import (
    Host,
    QuotientSpec,
    dk_ball,
    face_boundaries_at,
    is_r_locally,
    generate,
    make_quotient,
    peripheral_cycles_through,
    trace_faces,
)

torus = make_quotient(QuotientSpec("torus", 5, 7))
print("target:", torus.graph)

# D_k balls: the smallest ordinary ball containing everything reachable
# by chains of k face-sized peripheral cycles.  A D-ball is taken in a
# Host: here the torus graph with cycle length bound l_max = 4.
host = Host(torus.graph, 4)
d1 = dk_ball(host, 0, 1)
d2 = dk_ball(host, 0, 2)
print("D_1(0) = B_%d with %d vertices" % (d1.radius, d1.n))
print("D_2(0) = B_%d with %d vertices" % (d2.radius, d2.n))

# The inferred faces at a vertex...
inferred = face_boundaries_at(torus.graph, 0, l_max=4)
print("inferred faces at 0:", [tuple(f) for f in inferred])

# ...agree with what the rotation system says (the torus happens to have
# one, being orientable; the inference never used it).
traced = [w for w in trace_faces(torus.graph, torus.rotation) if 0 in w]
print("rotation-traced faces at 0:", sorted(traced))

# The same engine certifies local isomorphism with the tessellation.
patch = generate(4, 4, 6)
print("\n2-locally-{4,4} (face-core sense):", is_r_locally(torus.graph, patch, 2, d_balls=True).ok)
print("peripheral cycles through a patch vertex:",
      [tuple(c) for c in peripheral_cycles_through(patch.graph, patch.root, 4)])
