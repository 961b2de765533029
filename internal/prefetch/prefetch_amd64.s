//go:build amd64

#include "textflag.h"

// func T0(p unsafe.Pointer)
TEXT ·T0(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	RET
