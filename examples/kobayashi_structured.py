"""JSNT-S style run: the Kobayashi duct benchmark on a structured mesh.

Reproduces the paper's structured-mesh workload at laptop scale:
converges the dog-leg duct problem, prints the flux along the duct,
and runs a miniature strong-scaling study (Fig. 12's shape) with the
coarsened-graph optimization on.

Run:  python examples/kobayashi_structured.py
"""


from repro import JSNTS, Machine
from repro.sweep import product_quadrature


def main() -> None:
    machine = Machine(cores_per_proc=12)
    n = 18  # Kobayashi-18 (the paper runs Kobayashi-400/800)

    app = JSNTS.kobayashi(
        n,
        total_cores=24,
        machine=machine,
        patch_shape=(6, 6, 6),
        quadrature=product_quadrature(2, 12),  # 24 angles
        problem=3,
        scattering=True,
    )
    mesh = app.solver.mesh
    print(f"Kobayashi-{n} (dog-leg duct), {mesh.num_cells} cells, "
          f"{app.solver.quadrature.num_angles} angles, "
          f"{app.pset.num_patches} patches")

    result = app.solve(tol=1e-4, max_iterations=40)
    print(f"converged={result.converged} in {result.iterations} iterations")

    # Flux along the duct axis (x=2.5cm, z=2.5cm column).
    i = int(2.5 / 60.0 * n)
    print("\nflux along the first duct leg (y in cm):")
    for j in range(0, n, max(1, n // 8)):
        y = 60.0 * (j + 0.5) / n
        phi = result.phi[mesh.linear_index((i, j, i)), 0]
        print(f"  y={y:5.1f}  phi={phi:10.4e}")

    # Miniature strong-scaling study (shape of Fig. 12): the same app
    # swept at every core count; only the patch -> process map changes.
    print("\nstrong scaling (one sweep, coarsened graph, simulated cores):")
    base_time = None
    for cores in (24, 48, 96, 192):
        rep = app.sweep_report(cores, coarsened=True)
        if base_time is None:
            base_time = rep.makespan * cores
        eff = base_time / (rep.makespan * cores)
        print(f"  cores={cores:4d}  T={rep.makespan * 1e3:8.2f} ms  "
              f"parallel efficiency={eff:5.2f}  idle={rep.idle_fraction():.2f}")


if __name__ == "__main__":
    main()
