package chase

// RunSequentialReference exports the reference chase to the external
// equivalence test package.
var RunSequentialReference = runSequentialReference
