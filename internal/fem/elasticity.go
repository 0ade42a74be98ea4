package fem

import "repro/internal/sparse"

// Plane-strain linear elasticity with P1 (constant-strain) triangles: each
// node carries two displacement components (u_x, u_y), interleaved in the
// global numbering as 2*node+dof. This is the assembly pipeline behind the
// paper's dominant "Structural" matrix family (shipsec/bcsstk-class
// matrices come from exactly such element loops); rows arrive in natural
// 2×2 blocks, the structure block storage formats and block
// preconditioners exploit.

// Material holds isotropic elastic constants.
type Material struct {
	E  float64 // Young's modulus
	Nu float64 // Poisson ratio, in (0, 0.5)
}

// Lame returns the plane-strain Lamé parameters (λ, μ).
func (m Material) Lame() (lambda, mu float64) {
	lambda = m.E * m.Nu / ((1 + m.Nu) * (1 - 2*m.Nu))
	mu = m.E / (2 * (1 + m.Nu))
	return
}

// AssembleElasticity assembles the plane-strain stiffness matrix for the
// mesh with a (possibly spatially varying) material. The returned matrix
// is 2n×2n, symmetric, and positive semidefinite (definite after Dirichlet
// elimination of at least three constraints).
func AssembleElasticity(m *Mesh, mat func(x, y float64) Material) *sparse.CSR {
	n := m.NumNodes()
	bld := sparse.NewCOO(2*n, 2*n, 36*len(m.Elements))
	for _, el := range m.Elements {
		p0, p1, p2 := m.Nodes[el[0]], m.Nodes[el[1]], m.Nodes[el[2]]
		twoA := area2(m, el)
		area := twoA / 2
		// Basis gradients: ∇φᵢ = (bᵢ, cᵢ)/twoA.
		b := [3]float64{p1[1] - p2[1], p2[1] - p0[1], p0[1] - p1[1]}
		c := [3]float64{p2[0] - p1[0], p0[0] - p2[0], p1[0] - p0[0]}
		cx := (p0[0] + p1[0] + p2[0]) / 3
		cy := (p0[1] + p1[1] + p2[1]) / 3
		lambda, mu := mat(cx, cy).Lame()
		// Element stiffness: Ke = area · Bᵀ D B with the standard
		// plane-strain D; expanded per node pair to avoid forming B.
		for i := 0; i < 3; i++ {
			bi, ci := b[i]/twoA, c[i]/twoA
			for j := 0; j < 3; j++ {
				bj, cj := b[j]/twoA, c[j]/twoA
				// 2x2 coupling block between nodes i and j.
				kxx := area * ((lambda+2*mu)*bi*bj + mu*ci*cj)
				kxy := area * (lambda*bi*cj + mu*ci*bj)
				kyx := area * (lambda*ci*bj + mu*bi*cj)
				kyy := area * ((lambda+2*mu)*ci*cj + mu*bi*bj)
				bld.Add(2*el[i], 2*el[j], kxx)
				bld.Add(2*el[i], 2*el[j]+1, kxy)
				bld.Add(2*el[i]+1, 2*el[j], kyx)
				bld.Add(2*el[i]+1, 2*el[j]+1, kyy)
			}
		}
	}
	return bld.ToCSR()
}

// ApplyDirichletVector eliminates both displacement components of boundary
// nodes from the 2n×2n elasticity system (clamped boundary). It returns
// the reduced system, right-hand side, and the kept global dof indices.
func ApplyDirichletVector(m *Mesh, a *sparse.CSR, b []float64) (*sparse.CSR, []float64, []int) {
	n := m.NumNodes()
	keep := make([]int, 0, 2*n)
	newIdx := make([]int, 2*n)
	for i := range newIdx {
		newIdx[i] = -1
	}
	for i := 0; i < n; i++ {
		if !m.Boundary[i] {
			for d := 0; d < 2; d++ {
				newIdx[2*i+d] = len(keep)
				keep = append(keep, 2*i+d)
			}
		}
	}
	bld := sparse.NewCOO(len(keep), len(keep), a.NNZ())
	for _, i := range keep {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if newIdx[j] >= 0 {
				bld.Add(newIdx[i], newIdx[j], vals[k])
			}
		}
	}
	rb := make([]float64, len(keep))
	for r, i := range keep {
		rb[r] = b[i]
	}
	return bld.ToCSR(), rb, keep
}
