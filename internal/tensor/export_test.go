package tensor

// The vector body's gate and two helpers of the kernel tests, for the
// external tests that run code built on the kernels with the gate on and off.
var (
	UseAVX      = &useAVX
	DrawAwkward = drawAwkward
	SameBits    = sameBits
)
