"""Stats stage: design matrices, Poisson/NB2 fits, the NB-GLMM suite, BH and export."""
