package kernels

import "blackforest/internal/gpusim"

// Block-state slots for the kernels' shared-memory arrays, interned once at
// package init so the per-block lookup is a slice index rather than a
// string-keyed map access (see gpusim.NewSlot).
var (
	matmulAsSlot       = gpusim.NewSlot()
	matmulBsSlot       = gpusim.NewSlot()
	matmulAccSlot      = gpusim.NewSlot()
	nwTempSlot         = gpusim.NewSlot()
	nwRefSlot          = gpusim.NewSlot()
	transposeTileSlot  = gpusim.NewSlot()
	reductionSdataSlot = gpusim.NewSlot()
	histPrivSlot       = gpusim.NewSlot()
)
